#include "isdl/model.h"

#include <algorithm>

namespace isdl {

std::optional<std::uint64_t> TokenDef::memberValue(
    std::string_view syntax) const {
  for (const auto& m : members)
    if (m.syntax == syntax) return m.value;
  return std::nullopt;
}

std::optional<std::string> TokenDef::memberSyntax(std::uint64_t value) const {
  for (const auto& m : members)
    if (m.value == value) return m.syntax;
  return std::nullopt;
}

bool isAddressed(StorageKind k) {
  switch (k) {
    case StorageKind::InstructionMemory:
    case StorageKind::DataMemory:
    case StorageKind::RegisterFile:
    case StorageKind::MemoryMappedIO:
    case StorageKind::Stack:
      return true;
    case StorageKind::Register:
    case StorageKind::ControlRegister:
    case StorageKind::ProgramCounter:
      return false;
  }
  return false;
}

namespace {
template <typename Vec>
int findByName(const Vec& v, std::string_view n) {
  for (std::size_t i = 0; i < v.size(); ++i)
    if (v[i].name == n) return static_cast<int>(i);
  return -1;
}
}  // namespace

int Field::findOperation(std::string_view opName) const {
  return findByName(operations, opName);
}

int Machine::findToken(std::string_view n) const { return findByName(tokens, n); }
int Machine::findNonTerminal(std::string_view n) const {
  return findByName(nonTerminals, n);
}
int Machine::findStorage(std::string_view n) const {
  return findByName(storages, n);
}
int Machine::findAlias(std::string_view n) const {
  return findByName(aliases, n);
}
int Machine::findField(std::string_view n) const {
  return findByName(fields, n);
}

int Machine::dataMemoryIndex() const {
  int index = -1;
  for (std::size_t si = 0; si < storages.size(); ++si)
    if (storages[si].kind == StorageKind::DataMemory)
      index = static_cast<int>(si);
  return index;
}

unsigned Machine::maxSizeWords() const {
  unsigned maxSize = 1;
  for (const auto& f : fields)
    for (const auto& op : f.operations)
      maxSize = std::max(maxSize, op.costs.size);
  return maxSize;
}

unsigned Machine::paramEncodingWidth(const Param& p) const {
  return p.kind == ParamKind::Token ? tokens[p.index].width
                                    : nonTerminals[p.index].returnWidth;
}

const Constraint* Machine::firstViolatedConstraint(
    const std::vector<int>& choice) const {
  for (const auto& c : constraints) {
    bool allPresent = true;
    for (const auto& ref : c.ops) {
      int chosen = ref.fieldIndex < choice.size()
                       ? choice[ref.fieldIndex]
                       : -1;
      if (chosen < 0) chosen = fields[ref.fieldIndex].nopIndex;
      if (chosen != static_cast<int>(ref.opIndex)) {
        allPresent = false;
        break;
      }
    }
    if (allPresent) return &c;
  }
  return nullptr;
}

bool Machine::satisfiesConstraints(const std::vector<int>& choice) const {
  return firstViolatedConstraint(choice) == nullptr;
}

}  // namespace isdl
