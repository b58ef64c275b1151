// Cycle-based netlist simulator: executes an HGEN-generated hardware model.
//
// This is the reproduction's stand-in for the paper's Cadence Verilog-XL run
// of the synthesizable model (Table 1): a levelized two-phase simulator that
// evaluates every combinational node in topological order each clock, then
// commits registers and memory write ports. It is intentionally a
// *hardware-model* simulator — every wire of the datapath is computed every
// cycle — which is what makes it slower than the ILS.
//
// Construction lowers the netlist once into a flat instruction stream, the
// compiled-simulation idea applied to hardware:
//   * every net lives at a word offset in one uint64 array: ceil(width/64)
//     words, least significant first, bits above the width clear; memories
//     are flat word arrays too;
//   * each instruction holds its opcode, operator, widths, word offsets and
//     payload (slice bounds, memory, concat operands), so a clock never
//     touches hw::Node;
//   * operators of at most 64 bits call rtl/narrow_alu.h; mux, memory read
//     and narrow slices of a wide net move words; any other operator with a
//     net wider than 64 bits goes through the rtl::applyBinOp / BitVector
//     reference;
//   * registers and write ports commit from precomputed lists.
//
// It doubles as the co-simulation oracle: tests run the same binary on XSIM
// and on the netlist model and compare architectural state. The oracle's
// independent reference is XSIM's interpreter, which stays on BitVector.

#ifndef ISDL_SYNTH_GATESIM_H
#define ISDL_SYNTH_GATESIM_H

#include <cstdint>
#include <string>
#include <vector>

#include "hw/netlist.h"

namespace isdl {
class Machine;
}
namespace isdl::hw {
struct HwModel;
}
namespace isdl::sim {
struct AssembledProgram;
}

namespace isdl::synth {

class GateSim {
 public:
  /// Lowers `netlist`, which must outlive the simulator. Throws IsdlError on
  /// a netlist out of evaluation order or a register / write port whose data
  /// width differs from its destination's.
  explicit GateSim(const hw::Netlist& netlist);

  /// Zeroes all registers, memories and input nodes.
  void reset();

  /// Loads `prog` into `model` (which this simulator runs): its words into
  /// instruction memory from address 0 and its `.dm` records into the
  /// machine's data memory (Machine::dataMemoryIndex), as Xsim::loadProgram
  /// does. On a program that does not fit, or a `.dm` record without a data
  /// memory or out of its range, returns false with `*error` set and
  /// changes nothing.
  bool loadProgram(const Machine& machine, const hw::HwModel& model,
                   const sim::AssembledProgram& prog,
                   std::string* error = nullptr);

  // --- memory / state access ---------------------------------------------------
  /// Writes `contents` from address 0, up to the memory's depth.
  void loadMemory(int memId, const std::vector<BitVector>& contents);
  /// Throws IsdlError when `addr` is outside the memory.
  void pokeMemory(int memId, std::uint64_t addr, const BitVector& value);
  /// Throws IsdlError when `addr` is outside the memory.
  BitVector peekMemory(int memId, std::uint64_t addr) const;
  void pokeReg(hw::NetId reg, const BitVector& value);
  /// Value of any net after the last step() (combinational nets) or the
  /// current state (Reg nodes).
  BitVector peekNet(hw::NetId net) const;
  void setInput(hw::NetId input, const BitVector& value);

  // --- clocking -------------------------------------------------------------------
  /// Simulates one clock: combinational evaluation + sequential commit.
  void step();
  /// Steps until the net `stopNet` is non-zero or `maxClocks` elapse.
  /// Returns true if the stop condition fired.
  bool runUntil(hw::NetId stopNet, std::uint64_t maxClocks);

  std::uint64_t clocks() const { return clocks_; }

  /// Total bits toggled across all combinational nets so far — the activity
  /// input of the power model (synth/power.h).
  std::uint64_t toggleCount() const { return toggles_; }
  void enableToggleCounting(bool on) { countToggles_ = on; }

 private:
  enum class Op : std::uint8_t {
    // Every net ≤ 64 bits: one word in, one word out.
    Unary, Binary, AddSub, Mux, Slice, Concat, ZExt, SExt, Trunc, IToF, FToI,
    MemRead,    ///< any widths: the address's low word; moves data words
    MuxWide,    ///< select ≤ 64 bits, arms > 64 bits: moves words
    SliceWide,  ///< ≤ 64-bit slice (or truncation) of a wider net
    Reference,  ///< anything else: BitVector and the rtl reference
  };

  /// The combinational program, one instruction per node in netlist order,
  /// struct-of-arrays. Offsets index values_.
  struct Program {
    std::vector<Op> code;
    std::vector<std::uint8_t> op;  ///< UnOp / BinOp ordinal
    std::vector<std::uint32_t> dst, a, b, c;
    std::vector<std::uint32_t> w, aw, bw;  ///< result, operand widths
    /// Slice / SliceWide: hi, lo. Concat / Reference: operand range in
    /// args. MemRead: memory id. MuxWide: word count.
    std::vector<std::uint32_t> x, y;
    /// Concat and Reference operands: {offset, width}, most significant
    /// first.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> args;
    /// Reference payload, indexed by the instruction's `a`.
    struct RefNode {
      hw::NodeKind kind;
      std::uint8_t op;
      std::uint32_t hi, lo;
    };
    std::vector<RefNode> refs;
  };
  struct ConstLoad {
    std::uint32_t dst, words, pool;
  };
  struct RegCommit {
    std::uint32_t dst, next, words, enable, enableWords;  // enableWords 0: none
  };
  struct PortCommit {
    std::uint32_t mem, enable, enableWords, addr, data;
  };
  struct Mem {
    std::size_t base;
    std::uint64_t depth;
    std::uint32_t width, words;
  };

  const hw::Netlist* nl_;
  std::vector<std::uint32_t> offset_;  ///< per net
  std::vector<std::uint64_t> values_;
  std::vector<Mem> memInfo_;
  std::vector<std::uint64_t> mems_;
  Program prog_;
  std::vector<ConstLoad> consts_;
  std::vector<std::uint64_t> constPool_;
  std::vector<RegCommit> regs_;
  std::vector<PortCommit> ports_;
  // Two-phase commit sample buffers, sized once: fired flags and data words.
  std::vector<std::uint8_t> regFired_, portFired_;
  std::vector<std::uint64_t> regSample_, portSample_, portAddr_;

  std::uint64_t clocks_ = 0;
  std::uint64_t toggles_ = 0;
  bool countToggles_ = false;
  bool constsLoaded_ = false;

  void lower();
  std::uint32_t wordsOf(hw::NetId net) const;
  const Mem& memory(int memId, std::uint64_t addr) const;
  void loadConsts();
  template <bool kCountToggles>
  void evalCombinational();
  void evalCountingToggles();
  std::uint64_t evalReference(std::size_t i);
  void commit();
};

}  // namespace isdl::synth

#endif  // ISDL_SYNTH_GATESIM_H
