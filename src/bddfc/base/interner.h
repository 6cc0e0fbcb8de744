// String interning: bidirectional mapping between names and dense int ids.

#ifndef BDDFC_BASE_INTERNER_H_
#define BDDFC_BASE_INTERNER_H_

#include <cstdint>
#include <functional>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "bddfc/base/open_addressing.h"

namespace bddfc {

/// Interns strings to dense, stable 32-bit ids (0, 1, 2, ...).
///
/// Used for predicate names, constant names and variable names. Each name
/// is stored once, in the id-ordered vector; lookup by name is one probe
/// of an open-addressing table of ids (base/open_addressing.h) keyed by a
/// std::string_view, so no key string is built. Lookup by id is O(1).
class Interner {
 public:
  /// Returns the id for `name`, interning it if new — one probe either
  /// way. `*inserted`, when given, tells which.
  int32_t Intern(std::string_view name, bool* inserted = nullptr) {
    namespace oa = open_addressing;
    oa::ReserveSlot(&slots_, names_.size(), 1,
                    [this](uint32_t id) { return Hash(names_[id]); });
    const size_t slot = oa::Probe(slots_, Hash(name), [&](uint32_t id) {
      return names_[id] == name;
    });
    const bool fresh = slots_[slot] == oa::kEmptySlot;
    if (inserted != nullptr) *inserted = fresh;
    if (!fresh) return static_cast<int32_t>(slots_[slot]);
    slots_[slot] = static_cast<uint32_t>(names_.size());
    names_.emplace_back(name);
    return size() - 1;
  }

  /// Returns the id for `name`, or -1 if it was never interned. Interns
  /// nothing.
  int32_t Find(std::string_view name) const {
    if (slots_.empty()) return -1;
    const uint32_t id = slots_[open_addressing::Probe(
        slots_, Hash(name),
        [&](uint32_t i) { return names_[i] == name; })];
    return id == open_addressing::kEmptySlot ? -1 : static_cast<int32_t>(id);
  }

  /// Returns the name for `id`. Precondition: 0 <= id < size().
  const std::string& NameOf(int32_t id) const { return names_[id]; }

  bool Contains(std::string_view name) const { return Find(name) >= 0; }

  int32_t size() const { return static_cast<int32_t>(names_.size()); }

  /// Forgets every id >= n, so the next Intern reuses id n. Rollback hook
  /// for aborted runs (e.g. a supervised chase attempt whose invented
  /// nulls must not shift the ids of the retry). Callers must have
  /// dropped every reference to the removed ids. Clears the removed ids'
  /// slots newest first, which restores the table exactly (see
  /// ReserveSlot), so the cost is O(ids removed), never O(size()).
  void TruncateTo(int32_t n) {
    if (n < 0 || n >= size()) return;
    while (size() > n) {
      const uint32_t id = static_cast<uint32_t>(size() - 1);
      slots_[open_addressing::Probe(slots_, Hash(names_.back()),
                                    [id](uint32_t i) { return i == id; })] =
          open_addressing::kEmptySlot;
      names_.pop_back();
    }
  }

 private:
  static uint64_t Hash(std::string_view name) {
    return std::hash<std::string_view>()(name);
  }

  std::vector<std::string> names_;  // id -> name
  std::vector<uint32_t> slots_;     // open-addressing table of ids
};

/// Combines a hash value into a running seed (boost::hash_combine recipe).
inline void HashCombine(size_t& seed, size_t v) {
  seed ^= v + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
}

/// Hashes a contiguous range of integral values.
template <typename It>
size_t HashRange(It begin, It end, size_t seed = 0) {
  for (It it = begin; it != end; ++it) {
    HashCombine(seed, std::hash<typename std::iterator_traits<It>::value_type>()(*it));
  }
  return seed;
}

}  // namespace bddfc

#endif  // BDDFC_BASE_INTERNER_H_
