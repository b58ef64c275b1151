// Tests for operation signatures (paper Figure 3) and the decodability
// validation that underpins the Figure-4 disassembly algorithm.

#include "sim/signature.h"

#include <gtest/gtest.h>

#include <random>

#include "archs/archs.h"
#include "isdl/parser.h"
#include "isdl/sema.h"
#include "test_machines.h"

namespace isdl::sim {
namespace {

std::unique_ptr<Machine> mini() {
  auto m = parseAndCheckIsdl(testing::kMiniIsdl);
  return m;
}

TEST(Signature, ConstantAndParamBits) {
  auto m = mini();
  DiagnosticEngine diags;
  SignatureTable table(*m, diags);
  ASSERT_TRUE(table.valid()) << diags.dump();

  // EX.add: inst[31:27]=1, d=[26:24], a=[23:21], b=[20:18].
  const Signature& add = table.operation(0, 1);
  EXPECT_EQ(add.widthBits(), 32u);
  for (unsigned b = 27; b <= 31; ++b) EXPECT_TRUE(add.careMask().bit(b));
  EXPECT_TRUE(add.constBits().bit(27));
  EXPECT_FALSE(add.constBits().bit(28));
  for (unsigned b = 18; b <= 26; ++b) {
    EXPECT_FALSE(add.careMask().bit(b));
    EXPECT_TRUE(add.paramMask().bit(b));
  }
  EXPECT_FALSE(add.careMask().bit(0));
  EXPECT_FALSE(add.paramMask().bit(0));
}

TEST(Signature, ToStringRendersFigure3Style) {
  auto m = mini();
  DiagnosticEngine diags;
  SignatureTable table(*m, diags);
  const Signature& add = table.operation(0, 1);
  std::string s = add.toString();
  ASSERT_EQ(s.size(), 32u);
  EXPECT_EQ(s.substr(0, 5), "00001");   // opcode
  EXPECT_EQ(s.substr(5, 3), "aaa");     // d
  EXPECT_EQ(s.substr(8, 3), "bbb");     // a
  EXPECT_EQ(s.substr(11, 3), "ccc");    // b
  EXPECT_EQ(s.substr(14), std::string(18, 'x'));  // don't cares
}

TEST(Signature, AssembleExtractRoundTrip) {
  auto m = mini();
  DiagnosticEngine diags;
  SignatureTable table(*m, diags);
  const Signature& add = table.operation(0, 1);

  std::vector<BitVector> params = {BitVector(3, 5), BitVector(3, 2),
                                   BitVector(3, 7)};
  BitVector word(32);
  add.assemble(word, params);
  EXPECT_TRUE(add.matches(word));
  EXPECT_EQ(add.extractParam(0, word), params[0]);
  EXPECT_EQ(add.extractParam(1, word), params[1]);
  EXPECT_EQ(add.extractParam(2, word), params[2]);
  // Other operations must not match (decodability).
  EXPECT_FALSE(table.operation(0, 0).matches(word));  // nop
  EXPECT_FALSE(table.operation(0, 3).matches(word));  // sub
}

TEST(Signature, SplitParamEncoding) {
  // A parameter scattered across two disjoint bit ranges must reassemble.
  auto m = parseAndCheckIsdl(R"(
machine M {
  section format { word_width = 16; }
  section storage {
    instruction_memory IM width 16 depth 4;
    program_counter PC width 4;
  }
  section global_definitions { token U8 immediate unsigned width 8; }
  section instruction_set {
    field F {
      operation op(i: U8) {
        encode { inst[15:14] = 2'd1; inst[13:10] = i[7:4]; inst[3:0] = i[3:0]; }
      }
    }
  }
}
)");
  DiagnosticEngine diags;
  SignatureTable table(*m, diags);
  ASSERT_TRUE(table.valid());
  const Signature& sig = table.operation(0, 0);
  std::vector<BitVector> params = {BitVector(8, 0xA5)};
  BitVector word(16);
  sig.assemble(word, params);
  EXPECT_EQ(word.slice(13, 10).toUint64(), 0xAu);
  EXPECT_EQ(word.slice(3, 0).toUint64(), 0x5u);
  EXPECT_EQ(sig.extractParam(0, word).toUint64(), 0xA5u);
}

TEST(Signature, UndistinguishableOpsRejected) {
  DiagnosticEngine parseDiags;
  auto m = parseIsdl(R"(
machine M {
  section format { word_width = 8; }
  section storage {
    instruction_memory IM width 8 depth 4;
    program_counter PC width 4;
  }
  section global_definitions { token U4 immediate unsigned width 4; }
  section instruction_set {
    field F {
      operation a(i: U4) { encode { inst[7] = 1; inst[3:0] = i; } }
      operation b(i: U4) { encode { inst[7] = 1; inst[4:1] = i; } }
    }
  }
}
)",
                     parseDiags);
  ASSERT_NE(m, nullptr) << parseDiags.dump();
  checkMachine(*m, parseDiags);
  DiagnosticEngine diags;
  SignatureTable table(*m, diags);
  EXPECT_FALSE(table.valid());
  EXPECT_NE(diags.dump().find("not distinguishable"), std::string::npos)
      << diags.dump();
}

TEST(Signature, NonTerminalOptionSignatures) {
  auto m = mini();
  DiagnosticEngine diags;
  SignatureTable table(*m, diags);
  // SRC option reg: $$[8]=0, $$[7:3]=0, $$[2:0]=r.
  const Signature& reg = table.ntOption(0, 0);
  EXPECT_EQ(reg.widthBits(), 9u);
  EXPECT_TRUE(reg.careMask().bit(8));
  EXPECT_FALSE(reg.constBits().bit(8));
  // imm: $$[8]=1, $$[7:0]=i.
  const Signature& imm = table.ntOption(0, 1);
  EXPECT_TRUE(imm.constBits().bit(8));
  EXPECT_TRUE(distinguishable(reg, imm));

  BitVector v(9);
  imm.assemble(v, {BitVector(8, 0x5A)});
  EXPECT_TRUE(v.bit(8));
  EXPECT_FALSE(reg.matches(v));
  EXPECT_TRUE(imm.matches(v));
  EXPECT_EQ(imm.extractParam(0, v).toUint64(), 0x5Au);
}

TEST(Signature, MatchesIgnoresWiderWordTail) {
  auto m = mini();
  DiagnosticEngine diags;
  SignatureTable table(*m, diags);
  const Signature& add = table.operation(0, 1);
  BitVector wide(64);
  add.assemble(wide, {BitVector(3, 1), BitVector(3, 2), BitVector(3, 3)});
  wide.setBit(63, true);  // junk beyond the signature's width
  EXPECT_TRUE(add.matches(wide));
}

// Property: every operation of MINI assembles and round-trips its parameters
// for a sweep of parameter values.
class SignatureRoundTrip
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>> {};

TEST_P(SignatureRoundTrip, AllParamsRecoverable) {
  auto m = mini();
  DiagnosticEngine diags;
  SignatureTable table(*m, diags);
  auto [f, o] = GetParam();
  const Operation& op = m->fields[f].operations[o];
  const Signature& sig = table.operation(f, o);

  for (unsigned seed = 0; seed < 16; ++seed) {
    std::vector<BitVector> params;
    for (const auto& p : op.params) {
      unsigned w = m->paramEncodingWidth(p);
      std::uint64_t v = (seed * 2654435761u) & ((1ull << std::min(w, 63u)) - 1);
      if (p.kind == ParamKind::Token &&
          m->tokens[p.index].kind == TokenKind::Enum)
        v %= m->tokens[p.index].members.size();
      if (p.kind == ParamKind::NonTerminal) {
        // Use the imm option of SRC: bit 8 set, payload in [7:0].
        v = (1u << 8) | (v & 0xFF);
      }
      params.emplace_back(w, v);
    }
    BitVector word(sig.widthBits());
    sig.assemble(word, params);
    ASSERT_TRUE(sig.matches(word));
    for (std::size_t p = 0; p < params.size(); ++p)
      EXPECT_EQ(sig.extractParam(static_cast<unsigned>(p), word), params[p]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    MiniOps, SignatureRoundTrip,
    ::testing::Values(std::pair{0u, 0u}, std::pair{0u, 1u}, std::pair{0u, 2u},
                      std::pair{0u, 3u}, std::pair{0u, 4u}, std::pair{0u, 5u},
                      std::pair{0u, 6u}, std::pair{0u, 7u}, std::pair{0u, 8u},
                      std::pair{0u, 9u}, std::pair{1u, 0u}, std::pair{1u, 1u},
                      std::pair{1u, 2u}));

// --- word boundaries -------------------------------------------------------
//
// Signature moves constants and parameter runs a 64-bit word at a time. The
// per-bit reference below is the definition it must agree with.

void refAssemble(const Signature& sig, BitVector& word,
                 const std::vector<BitVector>& params) {
  for (unsigned b = 0; b < sig.widthBits(); ++b)
    if (sig.careMask().bit(b)) word.setBit(b, sig.constBits().bit(b));
  for (unsigned p = 0; p < params.size(); ++p) {
    const std::vector<unsigned>& bits = sig.instBitsOfParam(p);
    for (unsigned k = 0; k < bits.size(); ++k)
      if (bits[k] != ~0u) word.setBit(bits[k], params[p].bit(k));
  }
}

BitVector refExtract(const Signature& sig, unsigned p, const BitVector& word) {
  const std::vector<unsigned>& bits = sig.instBitsOfParam(p);
  BitVector v(static_cast<unsigned>(bits.size()));
  for (unsigned k = 0; k < bits.size(); ++k)
    if (bits[k] != ~0u) v.setBit(k, word.bit(bits[k]));
  return v;
}

bool refMatches(const Signature& sig, const BitVector& word) {
  for (unsigned b = 0; b < sig.widthBits(); ++b)
    if (sig.careMask().bit(b) && word.bit(b) != sig.constBits().bit(b))
      return false;
  return true;
}

bool refDistinguishable(const Signature& a, const Signature& b) {
  unsigned overlap = std::min(a.widthBits(), b.widthBits());
  for (unsigned bit = 0; bit < overlap; ++bit)
    if (a.careMask().bit(bit) && b.careMask().bit(bit) &&
        a.constBits().bit(bit) != b.constBits().bit(bit))
      return true;
  return false;
}

BitVector randomBits(unsigned width, std::mt19937_64& rng) {
  BitVector v(width);
  for (unsigned i = 0; i < v.numWords(); ++i) v.setWord(i, rng());
  return v;
}

EncodeAssign constAssign(unsigned hi, unsigned lo, std::uint64_t value) {
  EncodeAssign ea;
  ea.hi = hi;
  ea.lo = lo;
  ea.src = EncodeAssign::Src::Const;
  ea.constValue = BitVector(hi - lo + 1, value);
  return ea;
}

EncodeAssign paramAssign(unsigned hi, unsigned lo, unsigned param) {
  EncodeAssign ea;
  ea.hi = hi;
  ea.lo = lo;
  ea.src = EncodeAssign::Src::Param;
  ea.paramIndex = param;
  return ea;
}

EncodeAssign sliceAssign(unsigned hi, unsigned lo, unsigned param,
                         unsigned paramHi, unsigned paramLo) {
  EncodeAssign ea = paramAssign(hi, lo, param);
  ea.src = EncodeAssign::Src::ParamSlice;
  ea.paramHi = paramHi;
  ea.paramLo = paramLo;
  return ea;
}

struct WideCase {
  const char* name;
  unsigned width;
  std::size_t numParams;
  std::vector<EncodeAssign> encode;
};

std::vector<WideCase> wideCases() {
  return {
      // 65 bits: the opcode is the lone bit 64; a 64-bit parameter fills the
      // whole first word.
      {"w65", 65, 1, {constAssign(64, 64, 1), paramAssign(63, 0, 0)}},
      // 96 bits: a Param run straddles bit 64, and a ParamSlice run of a
      // second parameter straddles it on the parameter side too.
      {"w96",
       96,
       2,
       {constAssign(95, 90, 0x2B), paramAssign(71, 56, 0),
        sliceAssign(89, 72, 1, 69, 52), sliceAssign(51, 0, 1, 51, 0),
        constAssign(55, 52, 0x9)}},
      // 128 bits: one parameter split across both words, out of order; a
      // 72-bit parameter whose own bit 64 lands mid-word; constants in both
      // words.
      {"w128",
       128,
       2,
       {constAssign(127, 120, 0xA5), sliceAssign(119, 112, 0, 15, 8),
        sliceAssign(7, 0, 0, 7, 0), paramAssign(111, 40, 1),
        constAssign(39, 8, 0xDEADBEEF)}},
  };
}

TEST(SignatureWords, WideSignaturesMatchPerBitReference) {
  std::mt19937_64 rng(20260418);
  for (const WideCase& c : wideCases()) {
    SCOPED_TRACE(c.name);
    const Signature sig(c.width, c.numParams, c.encode);
    EXPECT_EQ(sig.ownedMask(), sig.careMask().or_(sig.paramMask()));
    for (int trial = 0; trial < 200; ++trial) {
      std::vector<BitVector> params;
      for (unsigned p = 0; p < c.numParams; ++p)
        params.push_back(randomBits(sig.paramWidth(p), rng));

      // Paint over random junk: bits the signature does not own survive.
      const BitVector junk = randomBits(c.width + 40, rng);
      BitVector word = junk, ref = junk;
      sig.assemble(word, params);
      refAssemble(sig, ref, params);
      ASSERT_EQ(word, ref);
      EXPECT_TRUE(sig.matches(word));
      for (unsigned p = 0; p < c.numParams; ++p) {
        EXPECT_EQ(sig.extractParam(p, word), params[p]);
        EXPECT_EQ(sig.extractParam(p, junk), refExtract(sig, p, junk));
      }
      EXPECT_EQ(sig.matches(junk), refMatches(sig, junk));

      // Flipping one constant bit breaks the match, in either word.
      BitVector flipped = word;
      unsigned b;
      do {
        b = static_cast<unsigned>(rng() % c.width);
      } while (!sig.careMask().bit(b));
      flipped.setBit(b, !flipped.bit(b));
      EXPECT_FALSE(sig.matches(flipped));
    }
  }
}

TEST(SignatureWords, DistinguishableMatchesPerBitReference) {
  std::mt19937_64 rng(7);
  // Random constant patterns over widths that end on either side of a word
  // boundary; overlaps of unequal widths compare only the shared bits.
  const unsigned widths[] = {1, 63, 64, 65, 96, 128, 130};
  for (int trial = 0; trial < 400; ++trial) {
    Signature sigs[2] = {Signature(1, 0, {}), Signature(1, 0, {})};
    for (Signature& sig : sigs) {
      const unsigned w = widths[rng() % std::size(widths)];
      std::vector<EncodeAssign> encode;
      for (unsigned b = 0; b < w; ++b)
        if (rng() % 8 == 0) encode.push_back(constAssign(b, b, rng() & 1));
      sig = Signature(w, 0, encode);
    }
    EXPECT_EQ(distinguishable(sigs[0], sigs[1]),
              refDistinguishable(sigs[0], sigs[1]));
    EXPECT_EQ(distinguishable(sigs[1], sigs[0]),
              refDistinguishable(sigs[0], sigs[1]));
  }
  // Bit 64 alone tells these two apart; bit 100 lies outside the 96-bit one.
  const Signature a(96, 0, {constAssign(64, 64, 0)});
  const Signature b(128, 0, {constAssign(64, 64, 1), constAssign(100, 100, 1)});
  const Signature c(128, 0, {constAssign(100, 100, 0)});
  EXPECT_TRUE(distinguishable(a, b));
  EXPECT_FALSE(distinguishable(a, c));
  EXPECT_TRUE(distinguishable(b, c));
}

TEST(SignatureWords, NarrowWordsAndValuesThrow) {
  for (const WideCase& c : wideCases()) {
    SCOPED_TRACE(c.name);
    const Signature sig(c.width, c.numParams, c.encode);
    std::vector<BitVector> params;
    for (unsigned p = 0; p < c.numParams; ++p)
      params.emplace_back(sig.paramWidth(p));

    BitVector narrow(c.width - 1);
    EXPECT_THROW(sig.matches(narrow), std::out_of_range);
    EXPECT_THROW(sig.extractParam(0, narrow), std::out_of_range);
    EXPECT_THROW(sig.assemble(narrow, params), std::out_of_range);
    // A word narrower by whole words must not read the missing ones as zero.
    BitVector oneWord(64);
    EXPECT_THROW(sig.matches(oneWord), std::out_of_range);

    BitVector word(c.width);
    for (unsigned p = 0; p < c.numParams; ++p) {
      std::vector<BitVector> shortParams = params;
      shortParams[p] = BitVector(sig.paramWidth(p) - 1);
      EXPECT_THROW(sig.assemble(word, shortParams), std::out_of_range);
    }
    EXPECT_THROW(sig.assemble(word, {}), std::out_of_range);
    EXPECT_NO_THROW(sig.assemble(word, params));
  }
}

TEST(SignatureWords, SpamRoundTripThrough128BitWord) {
  auto m = archs::loadSpam();
  ASSERT_NE(m, nullptr);
  DiagnosticEngine diags;
  SignatureTable table(*m, diags);
  ASSERT_TRUE(table.valid()) << diags.dump();
  std::mt19937_64 rng(128);
  unsigned checked = 0;
  for (unsigned f = 0; f < m->fields.size(); ++f) {
    for (unsigned o = 0; o < m->fields[f].operations.size(); ++o) {
      const Signature& sig = table.operation(f, o);
      ASSERT_EQ(sig.widthBits() % 128, 0u);
      for (int trial = 0; trial < 8; ++trial) {
        std::vector<BitVector> params;
        for (std::size_t p = 0; p < m->fields[f].operations[o].params.size();
             ++p)
          params.push_back(randomBits(sig.paramWidth(unsigned(p)), rng));
        const BitVector junk = randomBits(sig.widthBits(), rng);
        BitVector word = junk, ref = junk;
        sig.assemble(word, params);
        refAssemble(sig, ref, params);
        ASSERT_EQ(word, ref) << m->fields[f].operations[o].name;
        ASSERT_TRUE(sig.matches(word));
        for (unsigned p = 0; p < params.size(); ++p)
          EXPECT_EQ(sig.extractParam(p, word), params[p]);
        // Every other operation of the field rejects the word.
        for (unsigned other = 0; other < m->fields[f].operations.size();
             ++other) {
          if (other != o) {
            EXPECT_FALSE(table.operation(f, other).matches(word));
          }
        }
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 0u);
}


}  // namespace
}  // namespace isdl::sim
