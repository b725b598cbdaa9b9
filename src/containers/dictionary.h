#ifndef HPA_CONTAINERS_DICTIONARY_H_
#define HPA_CONTAINERS_DICTIONARY_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>

#include "common/status.h"
#include "containers/chained_hash_map.h"
#include "containers/hash.h"
#include "containers/open_hash_map.h"
#include "containers/rb_tree_map.h"
#include "containers/sharded_dict.h"

/// \file
/// The dictionary abstraction at the heart of the paper's §3.4: word-count
/// and TF/IDF keep their term tables behind one uniform API so the backend
/// can be swapped per workflow phase. Five backends are provided:
///
///   * kStdMap          — `std::map` (the paper's "map")
///   * kStdUnorderedMap — `std::unordered_map` (the paper's "u-map")
///   * kRbTree          — our instrumented red-black tree (≈ std::map)
///   * kChainedHash     — our instrumented chained table (≈ unordered_map)
///   * kOpenHash        — flat open addressing (the modern-engine choice)
///
/// All expose: FindOrInsert / Find / size / Clear / Reserve / ForEach /
/// ApproxMemoryBytes / kSortedIteration. String-keyed tables (the default)
/// take heterogeneous std::string_view lookups; integer-keyed tables (the
/// per-document term tables, keyed by interned term id) take the key
/// itself.

namespace hpa::containers {

/// Selectable dictionary implementation.
enum class DictBackend {
  kStdMap,
  kStdUnorderedMap,
  kRbTree,
  kChainedHash,
  kOpenHash,
};

/// Stable name ("map", "u-map", "rb-tree", "chained-hash", "open-hash").
std::string_view DictBackendName(DictBackend backend);

/// Inverse of DictBackendName. Also accepts "unordered_map" and "std_map".
StatusOr<DictBackend> ParseDictBackend(std::string_view name);

/// All backends, for parameterized tests and sweeps.
inline constexpr DictBackend kAllDictBackends[] = {
    DictBackend::kStdMap, DictBackend::kStdUnorderedMap, DictBackend::kRbTree,
    DictBackend::kChainedHash, DictBackend::kOpenHash,
};

/// Lookup argument for a table keyed by `Key`: std::string_view for string
/// keys (no temporary strings on lookup), the key itself otherwise.
template <typename Key>
using DictKeyArg =
    std::conditional_t<std::is_same_v<Key, std::string>, std::string_view,
                       Key>;

/// Uniform wrapper over std::map<Key, V>.
template <typename V, typename Key = std::string>
class StdMapDict {
 public:
  using KeyArg = DictKeyArg<Key>;

  explicit StdMapDict(size_t /*capacity_hint*/ = 0) {}

  V& FindOrInsert(KeyArg key) {
    auto it = map_.find(key);
    if (it != map_.end()) return it->second;
    return map_.emplace(Key(key), V{}).first->second;
  }
  const V* Find(KeyArg key) const {
    auto it = map_.find(key);
    return it == map_.end() ? nullptr : &it->second;
  }
  bool Contains(KeyArg key) const { return Find(key) != nullptr; }
  bool Erase(KeyArg key) {
    auto it = map_.find(key);
    if (it == map_.end()) return false;
    map_.erase(it);
    return true;
  }
  size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }
  void Clear() { map_.clear(); }
  void Reserve(size_t) {}

  template <typename Fn>
  void ForEach(Fn fn) const {
    for (const auto& [k, v] : map_) fn(k, v);
  }

  static constexpr bool kSortedIteration = true;

  uint64_t ApproxMemoryBytes() const {
    // libstdc++ _Rb_tree_node: 3 pointers + color + payload, rounded.
    uint64_t per_node = 40 + sizeof(std::pair<Key, V>);
    uint64_t bytes = 0;
    for (const auto& [k, v] : map_) {
      bytes += per_node + internal_hash::OwnedHeapBytes(k) +
               internal_hash::OwnedHeapBytes(v);
    }
    return bytes;
  }

 private:
  std::map<Key, V, std::less<>> map_;
};

/// Uniform wrapper over std::unordered_map<Key, V>.
///
/// `capacity_hint` pre-sizes the bucket array — the paper pre-sizes its
/// per-document u-map tables "to hold 4K items to minimize resizing
/// overhead", which is also what blows up its memory footprint.
template <typename V, typename Key = std::string>
class StdUnorderedDict {
 public:
  using KeyArg = DictKeyArg<Key>;

  explicit StdUnorderedDict(size_t capacity_hint = 0) {
    // reserve() sizes for `capacity_hint` *elements* (accounting for
    // max_load_factor); rehash() would interpret it as a bucket count.
    if (capacity_hint > 0) map_.reserve(capacity_hint);
  }

  V& FindOrInsert(KeyArg key) {
    auto it = map_.find(key);
    if (it != map_.end()) return it->second;
    return map_.emplace(Key(key), V{}).first->second;
  }
  const V* Find(KeyArg key) const {
    auto it = map_.find(key);
    return it == map_.end() ? nullptr : &it->second;
  }
  bool Contains(KeyArg key) const { return Find(key) != nullptr; }
  bool Erase(KeyArg key) {
    auto it = map_.find(key);
    if (it == map_.end()) return false;
    map_.erase(it);
    return true;
  }
  size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }
  void Clear() { map_.clear(); }
  void Reserve(size_t n) { map_.reserve(n); }

  template <typename Fn>
  void ForEach(Fn fn) const {
    for (const auto& [k, v] : map_) fn(k, v);
  }

  static constexpr bool kSortedIteration = false;

  uint64_t ApproxMemoryBytes() const {
    // Bucket array plus one _Hash_node (next ptr + hash cache + payload).
    uint64_t bytes = map_.bucket_count() * sizeof(void*);
    uint64_t per_node = 16 + sizeof(std::pair<Key, V>);
    for (const auto& [k, v] : map_) {
      bytes += per_node + internal_hash::OwnedHeapBytes(k) +
               internal_hash::OwnedHeapBytes(v);
    }
    return bytes;
  }

 private:
  // DefaultHash<std::string> is transparent over std::string_view.
  struct TransparentHash : DefaultHash<Key> {
    using is_transparent = void;
  };
  std::unordered_map<Key, V, TransparentHash, std::equal_to<>> map_;
};

/// Maps a DictBackend tag to the wrapper type for value type `V` and key
/// type `Key` (std::string unless the table is keyed by interned ids).
template <DictBackend B, typename V, typename Key = std::string>
struct DictFor;

template <typename V, typename Key>
struct DictFor<DictBackend::kStdMap, V, Key> {
  using type = StdMapDict<V, Key>;
};
template <typename V, typename Key>
struct DictFor<DictBackend::kStdUnorderedMap, V, Key> {
  using type = StdUnorderedDict<V, Key>;
};
template <typename V, typename Key>
struct DictFor<DictBackend::kRbTree, V, Key> {
  using type = RbTreeMap<Key, V>;
};
template <typename V, typename Key>
struct DictFor<DictBackend::kChainedHash, V, Key> {
  using type = ChainedHashMap<Key, V>;
};
template <typename V, typename Key>
struct DictFor<DictBackend::kOpenHash, V, Key> {
  using type = OpenHashMap<Key, V>;
};

/// Hash-partitioned composite of backend `B`: the output type of the
/// parallel sharded reductions (parallel/parallel_ops.h). Same uniform
/// surface as the plain backends, so it drops into the same pipelines.
template <DictBackend B, typename V>
using ShardedDictFor = ShardedDict<typename DictFor<B, V>::type>;

/// Invokes `fn` with a `std::integral_constant<DictBackend, B>` matching the
/// runtime `backend` — the bridge from runtime plan choices to the
/// statically-typed operator pipelines:
///
/// \code
///   DispatchDictBackend(plan.wc_backend, [&](auto tag) {
///     RunWordCount<tag()>(ctx, corpus);
///   });
/// \endcode
template <typename Fn>
decltype(auto) DispatchDictBackend(DictBackend backend, Fn&& fn) {
  switch (backend) {
    case DictBackend::kStdMap:
      return fn(std::integral_constant<DictBackend, DictBackend::kStdMap>{});
    case DictBackend::kStdUnorderedMap:
      return fn(std::integral_constant<DictBackend,
                                       DictBackend::kStdUnorderedMap>{});
    case DictBackend::kRbTree:
      return fn(std::integral_constant<DictBackend, DictBackend::kRbTree>{});
    case DictBackend::kChainedHash:
      return fn(
          std::integral_constant<DictBackend, DictBackend::kChainedHash>{});
    case DictBackend::kOpenHash:
      return fn(std::integral_constant<DictBackend, DictBackend::kOpenHash>{});
  }
  // Unreachable for valid enum values.
  return fn(std::integral_constant<DictBackend, DictBackend::kStdMap>{});
}

}  // namespace hpa::containers

#endif  // HPA_CONTAINERS_DICTIONARY_H_
