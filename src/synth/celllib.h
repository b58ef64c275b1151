// Synthetic standard-cell library — the reproduction's stand-in for the
// paper's LSI Logic 10K library (Table 2's "grid cells" area unit and
// nanosecond cycle lengths come from that technology).
//
// Area is in grid cells, delay in nanoseconds. The numbers are calibrated to
// late-90s gate-array technology so the *shape* of Table 2 reproduces: a
// 32-bit ripple-ish adder costs a few hundred grid cells, a 32x32 multiplier
// thousands, flip-flops dominate register files, and floating-point macro
// blocks dwarf integer logic.
//
// mapper.h consumes these per-primitive numbers through closed-form
// decomposition formulas (a w-bit adder = w full adders + lookahead, a
// barrel shifter = w*log2(w) muxes, ...), which is how a quick silicon
// compiler estimates netlists before placement.

#ifndef ISDL_SYNTH_CELLLIB_H
#define ISDL_SYNTH_CELLLIB_H

namespace isdl::synth {

struct Cell {
  const char* name;
  double area;   ///< grid cells
  double delay;  ///< ns, input to output
};

/// The primitive cells of the synthetic library.
struct CellLibrary {
  Cell inv{"INV", 1.0, 0.15};
  Cell nand2{"NAND2", 1.0, 0.20};
  Cell and2{"AND2", 2.0, 0.30};
  Cell or2{"OR2", 2.0, 0.30};
  Cell xor2{"XOR2", 3.0, 0.45};
  Cell mux21{"MUX21", 3.0, 0.40};
  Cell fullAdder{"FA", 8.0, 0.70};
  /// Carry propagation per lookahead level (delay only).
  double carryLevelDelay = 0.25;
  Cell dff{"DFF", 6.0, 0.0};
  double dffClkToQ = 0.80;
  double dffSetup = 0.40;

  /// RAM macro: area per bit (grid cells) and access time.
  double ramAreaPerBit = 0.6;
  double ramAccessDelay = 1.8;
  double ramAddrDecodePerLevel = 0.10;
  /// Decode and sensing logic per bit of each read port.
  double ramReadPortAreaPerBit = 4.0;

  /// 32-bit floating-point macro blocks (x3 for 64-bit).
  double fp32AddArea = 4200, fp32AddDelay = 6.5;
  double fp32MulArea = 11000, fp32MulDelay = 7.5;
  double fp32DivArea = 14000, fp32DivDelay = 13.0;
  double fp32CvtArea = 2400, fp32CvtDelay = 5.0;
  double fp32CmpArea = 700, fp32CmpDelay = 1.8;

  /// Routing / glue overhead multiplier applied to summed cell area
  /// (placement tools of the era reported ~20-30% wiring overhead).
  double wiringOverhead = 1.25;
};

/// The default technology (the one every report in this repo uses).
const CellLibrary& defaultLibrary();

}  // namespace isdl::synth

#endif  // ISDL_SYNTH_CELLLIB_H
