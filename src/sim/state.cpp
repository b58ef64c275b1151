#include "sim/state.h"

#include <algorithm>
#include <stdexcept>

#include "rtl/narrow_alu.h"
#include "support/strings.h"

namespace isdl::sim {

int Monitors::add(unsigned storageIndex, std::optional<std::uint64_t> element,
                  Callback callback) {
  int handle = nextHandle_++;
  watches_.push_back({handle, storageIndex, element, std::move(callback)});
  return handle;
}

void Monitors::remove(int handle) {
  std::erase_if(watches_, [&](const Watch& w) { return w.handle == handle; });
}

void Monitors::fire(const WriteEvent& event) const {
  for (const auto& w : watches_) {
    if (w.storageIndex != event.storageIndex) continue;
    if (w.element && *w.element != event.element) continue;
    w.callback(event);
  }
}

State::State(const Machine& machine) : machine_(&machine) {
  // Every bound is checked against the vector's capacity before the one
  // allocation, so a description whose storages cannot be counted in words
  // (a 2^63-deep 128-bit memory wraps a 64-bit product to 0) is rejected
  // instead of under-allocated.
  const std::uint64_t limit = words_.max_size();
  std::uint64_t total = 0;
  layout_.reserve(machine.storages.size());
  for (const auto& st : machine.storages) {
    Layout l;
    l.offset = total;
    l.depth = st.depth;
    l.width = st.width;
    l.wordsPerElement = (st.width + 63) / 64;
    l.mask = narrow::maskOf(st.width);
    l.dirtyLo = st.depth;  // nothing written yet
    if (st.depth > (limit - total) / l.wordsPerElement)
      throw std::length_error(cat("storage ", st.name, " (depth ", st.depth,
                                  ", width ", st.width,
                                  ") is too large to simulate"));
    total += st.depth * l.wordsPerElement;
    layout_.push_back(l);
  }
  words_.assign(total, 0);
}

void State::reset() {
  // Every location outside a storage's dirty range is still zero, so one
  // fill over that range restores the whole storage (resets run once per
  // measured benchmark iteration and exploration candidate).
  for (Layout& l : layout_) {
    if (l.dirtyLo < l.dirtyHi)
      std::fill(words_.begin() + l.offset + l.dirtyLo * l.wordsPerElement,
                words_.begin() + l.offset + l.dirtyHi * l.wordsPerElement,
                0);
    l.dirtyLo = l.depth;
    l.dirtyHi = 0;
  }
}

void State::throwRangeError(unsigned si, std::uint64_t element) const {
  throw rtl::EvalError(cat("access to ", machine_->storages[si].name, "[",
                           element, "] is out of range (depth ",
                           layout_[si].depth, ")"));
}

void State::write(unsigned si, std::uint64_t element, const BitVector& value,
                  std::uint64_t cycle) {
  Layout& l = layout_[si];
  std::uint64_t* w = slot(si, element);
  if (value.width() != l.width)
    throw std::invalid_argument(
        cat("write of a ", value.width(), "-bit value to ",
            machine_->storages[si].name, ", which is ", l.width,
            " bits wide"));
  if (l.wordsPerElement == 1) {
    writeWord(si, element, value.toUint64(), cycle);
    return;
  }
  bool same = true;
  for (unsigned i = 0; i < l.wordsPerElement; ++i)
    same = same && w[i] == value.word(i);
  if (same) return;
  BitVector old = monitors_.empty() ? BitVector() : read(si, element);
  for (unsigned i = 0; i < l.wordsPerElement; ++i) w[i] = value.word(i);
  markDirty(l, element);
  if (heat_) heat_->countWrite(si, element);
  if (!monitors_.empty())
    monitors_.fire({si, element, cycle, std::move(old), value});
}

void State::fireWordWrite(unsigned si, std::uint64_t element,
                          std::uint64_t old, std::uint64_t cycle) const {
  monitors_.fire({si, element, cycle, BitVector(layout_[si].width, old),
                  read(si, element)});
}

}  // namespace isdl::sim
