// Open addressing over dense ids: the one probing routine shared by the
// fact store's exact-tuple and value tables and the Interner's name table.
//
// A table is a power-of-two vector of slots, each empty or holding an id
// from a dense range [0, count). The caller supplies the hash of a key and
// an equality test on ids; keys live outside the table (arena rows, value
// vectors, name strings), so a slot costs four bytes and no key is copied.
// Probing is linear and the load stays at most 1/2.

#ifndef BDDFC_BASE_OPEN_ADDRESSING_H_
#define BDDFC_BASE_OPEN_ADDRESSING_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace bddfc::open_addressing {

/// The free slot. Ids are dense and stay below it.
inline constexpr uint32_t kEmptySlot = UINT32_MAX;
inline constexpr size_t kMinSlots = 8;

/// Final mixer of a 64-bit hash (murmur3's fmix64). Dense ids would lay
/// runs of keys into runs of slots and make linear probes long; this
/// spreads them.
inline uint64_t Mix(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

/// Linear probing over a non-empty power-of-two table of ids. Returns the
/// slot holding the id `same` accepts, or the free slot where the probe
/// ended (load <= 1/2, so one exists).
template <typename Same>
size_t Probe(const std::vector<uint32_t>& slots, uint64_t hash, Same same) {
  const size_t mask = slots.size() - 1;
  size_t i = static_cast<size_t>(hash) & mask;
  while (slots[i] != kEmptySlot && !same(slots[i])) i = (i + 1) & mask;
  return i;
}

/// Makes room for `extra` more ids in a table holding ids [0, count): when
/// they would push the load past 1/2, grows the table to the smallest
/// power of two that holds them and reinserts ids 0, 1, ..., count - 1 in
/// that order. A table therefore always equals "ids 0..count-1 inserted in
/// order" into its current size, so removing ids newest first by clearing
/// their slots restores the table exactly (Interner::TruncateTo).
template <typename HashOf>
void ReserveSlot(std::vector<uint32_t>* slots, size_t count, size_t extra,
                 HashOf hash_of) {
  const size_t need = 2 * (count + extra);
  if (need <= slots->size()) return;
  size_t size = std::max(kMinSlots, 2 * slots->size());
  while (size < need) size *= 2;
  slots->assign(size, kEmptySlot);
  for (uint32_t id = 0; id < count; ++id) {
    (*slots)[Probe(*slots, hash_of(id), [](uint32_t) { return false; })] = id;
  }
}

}  // namespace bddfc::open_addressing

#endif  // BDDFC_BASE_OPEN_ADDRESSING_H_
