// Architectural state and state monitors (paper Figure 2: "State" and
// "Monitors"). State generation (§3.3.1) allocates room for every storage
// element of the ISDL description in one word array; every write is routed
// through the monitor hooks so user-defined watchpoints can observe any
// change, and counted in the XTRACE storage heatmap when one is attached.

#ifndef ISDL_SIM_STATE_H
#define ISDL_SIM_STATE_H

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "isdl/model.h"
#include "obs/metrics.h"
#include "rtl/eval.h"
#include "support/bitvector.h"

namespace isdl::sim {

/// A committed change to one storage location.
struct WriteEvent {
  unsigned storageIndex = 0;
  std::uint64_t element = 0;
  std::uint64_t cycle = 0;
  BitVector oldValue;
  BitVector newValue;
};

/// Watchpoint registry. A monitor can watch a whole storage element or a
/// single location of an addressed one; it fires only on actual changes
/// (oldValue != newValue), mirroring the paper's "detect whenever any
/// user-defined portion of the state changes".
class Monitors {
 public:
  using Callback = std::function<void(const WriteEvent&)>;

  /// Returns a handle usable with remove().
  int add(unsigned storageIndex, std::optional<std::uint64_t> element,
          Callback callback);
  void remove(int handle);
  bool empty() const { return watches_.empty(); }

  void fire(const WriteEvent& event) const;

 private:
  struct Watch {
    int handle;
    unsigned storageIndex;
    std::optional<std::uint64_t> element;
    Callback callback;
  };
  std::vector<Watch> watches_;
  int nextHandle_ = 1;
};

/// The processor state: every storage of the description in one flat array
/// of 64-bit words. Storage `si` holds `depth` elements of
/// ceil(width/64) words each (low word first) from its own offset, so a
/// storage wider than 64 bits (SPAM's 128-bit instruction memory) shares the
/// layout: there is one representation and no second code path. Each storage
/// also keeps the range of elements changed since the last reset, so a reset
/// zeroes only what the last run touched.
class State {
 public:
  /// Throws std::length_error, before allocating anything, when the
  /// machine's storages need more words than a vector can hold.
  explicit State(const Machine& machine);

  const Machine& machine() const { return *machine_; }
  Monitors& monitors() { return monitors_; }
  /// Counts every value-changing write of any location into `heat`'s write
  /// rows (sized for this machine); null stops counting.
  void setHeatmap(obs::StorageHeatmap* heat) { heat_ = heat; }

  /// Zeroes every storage element (no monitor events): one fill per storage
  /// over the elements changed since the previous reset.
  void reset();

  /// Reads location `element` of storage `si` (element 0 for non-addressed
  /// kinds) as a value of the storage's width. Throws rtl::EvalError on
  /// out-of-range access. The boundary API for the interpreter, CLI and
  /// tests; the micro-op engine reads words.
  BitVector read(unsigned si, std::uint64_t element = 0) const {
    return BitVector::fromWords(layout_[si].width, slot(si, element));
  }
  /// The low 64 bits of a location: its whole value when the storage is at
  /// most 64 bits wide. Range-checked like read().
  std::uint64_t readWord(unsigned si, std::uint64_t element = 0) const {
    return *slot(si, element);
  }

  /// Writes a whole location, firing monitors when the value changes.
  /// Throws std::invalid_argument when `value` is not exactly as wide as
  /// the storage.
  void write(unsigned si, std::uint64_t element, const BitVector& value,
             std::uint64_t cycle);
  /// Writes `value` truncated (or zero-extended) to the storage's width,
  /// firing monitors when the value changes. On a storage at most 64 bits
  /// wide no BitVector is built unless a monitor is armed.
  void writeWord(unsigned si, std::uint64_t element, std::uint64_t value,
                 std::uint64_t cycle) {
    const Layout& l = layout_[si];
    if (l.wordsPerElement != 1) {
      writeZeroExtended(si, element, value, cycle);
      return;
    }
    if (element >= l.depth) throwRangeError(si, element);
    writeWordInRange(si, element, value, cycle);
  }

  /// readWord and writeWord for a storage at most 64 bits wide, at an
  /// element the caller has already checked against the storage's depth:
  /// the retire path of the delayed-write queue, which checks every element
  /// when the write is staged.
  std::uint64_t wordInRange(unsigned si, std::uint64_t element) const {
    return words_[layout_[si].offset + element];
  }
  void writeWordInRange(unsigned si, std::uint64_t element,
                        std::uint64_t value, std::uint64_t cycle) {
    Layout& l = layout_[si];
    std::uint64_t& w = words_[l.offset + element];
    value &= l.mask;
    if (w == value) return;
    const std::uint64_t old = w;
    w = value;
    markDirty(l, element);
    if (heat_) [[unlikely]] heat_->countWrite(si, element);
    if (!monitors_.empty()) fireWordWrite(si, element, old, cycle);
  }

  /// Stores `value`, already within the storage's width, at a checked
  /// element without firing monitors or counting in the heatmap: how a block
  /// moves the program counter and undoes its writes (ExecEngine::runBlock).
  void storeWordInRange(unsigned si, std::uint64_t element,
                        std::uint64_t value) {
    Layout& l = layout_[si];
    words_[l.offset + element] = value;
    markDirty(l, element);
  }

  // --- convenience accessors -------------------------------------------------
  std::uint64_t pc() const { return readWord(pcIndex()); }
  void setPc(std::uint64_t value, std::uint64_t cycle) {
    writeWord(pcIndex(), 0, value, cycle);
  }

  std::uint64_t depth(unsigned si) const { return layout_[si].depth; }
  unsigned width(unsigned si) const { return layout_[si].width; }

 private:
  struct Layout {
    std::uint64_t offset = 0;  ///< first word of element 0 in words_
    std::uint64_t depth = 0;
    unsigned width = 0;
    unsigned wordsPerElement = 0;
    std::uint64_t mask = 0;  ///< value bits of a one-word element
    /// Elements [dirtyLo, dirtyHi) hold every change since the last reset;
    /// empty when dirtyLo >= dirtyHi.
    std::uint64_t dirtyLo = 0, dirtyHi = 0;
  };

  const Machine* machine_;
  unsigned pcIndex_;
  std::vector<Layout> layout_;
  std::vector<std::uint64_t> words_;
  Monitors monitors_;
  obs::StorageHeatmap* heat_ = nullptr;

  unsigned pcIndex() const { return pcIndex_; }
  const std::uint64_t* slot(unsigned si, std::uint64_t element) const {
    const Layout& l = layout_[si];
    if (element >= l.depth) throwRangeError(si, element);
    return words_.data() + l.offset + element * l.wordsPerElement;
  }
  std::uint64_t* slot(unsigned si, std::uint64_t element) {
    return const_cast<std::uint64_t*>(std::as_const(*this).slot(si, element));
  }
  static void markDirty(Layout& l, std::uint64_t element) {
    l.dirtyLo = std::min(l.dirtyLo, element);
    l.dirtyHi = std::max(l.dirtyHi, element + 1);
  }
  /// writeWord on a storage wider than 64 bits.
  void writeZeroExtended(unsigned si, std::uint64_t element,
                         std::uint64_t value, std::uint64_t cycle);
  void fireWordWrite(unsigned si, std::uint64_t element, std::uint64_t old,
                     std::uint64_t cycle) const;
  [[noreturn]] void throwRangeError(unsigned si, std::uint64_t element) const;
};

}  // namespace isdl::sim

#endif  // ISDL_SIM_STATE_H
