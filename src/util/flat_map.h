// Sorted flat map: contiguous storage, binary-search lookup, ordered
// iteration bit-identical to std::map's.
//
// The interpreter keeps per-block message buffers (B.Ms[in], B.Ms[out])
// keyed by Label. Those maps are tiny (the labels of one block's messages)
// but are created and iterated once per interpreted block — the hot path of
// Algorithm 2. (B.PIs, which holds every label a server has started and is
// copied into every block, is a PersistentMap instead:
// util/persistent_map.h.) A red-black tree pays one allocation per node and
// chases pointers on every copy and walk; a sorted vector is one allocation
// total, copies with memmove-ish loops, and iterates linearly. Inserts shift
// the tail, which is the right trade at these sizes.
//
// Only the std::map surface the code base uses is implemented: find/at/
// count/contains/operator[]/emplace/lower_bound, ordered begin..end,
// structured-binding iteration over pair<K, V>. Keys are unique and kept
// ascending — digest_of() and every test that walks these maps relies on
// that order matching std::map exactly.
#pragma once

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

namespace blockdag {

template <typename K, typename V>
class FlatMap {
 public:
  using value_type = std::pair<K, V>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  iterator begin() { return data_.begin(); }
  iterator end() { return data_.end(); }
  const_iterator begin() const { return data_.begin(); }
  const_iterator end() const { return data_.end(); }
  const_iterator cbegin() const { return data_.begin(); }
  const_iterator cend() const { return data_.end(); }

  bool empty() const { return data_.empty(); }
  std::size_t size() const { return data_.size(); }
  void clear() { data_.clear(); }
  void reserve(std::size_t n) { data_.reserve(n); }

  iterator find(const K& key) {
    const iterator it = lower_bound(key);
    return it != data_.end() && it->first == key ? it : data_.end();
  }
  const_iterator find(const K& key) const {
    const const_iterator it = lower_bound(key);
    return it != data_.end() && it->first == key ? it : data_.end();
  }

  std::size_t count(const K& key) const { return find(key) != end() ? 1 : 0; }
  bool contains(const K& key) const { return find(key) != end(); }

  V& at(const K& key) {
    const iterator it = find(key);
    if (it == end()) throw std::out_of_range("FlatMap::at");
    return it->second;
  }
  const V& at(const K& key) const {
    const const_iterator it = find(key);
    if (it == end()) throw std::out_of_range("FlatMap::at");
    return it->second;
  }

  // Inserts a default-constructed value at the sorted position if absent.
  V& operator[](const K& key) {
    iterator it = lower_bound(key);
    if (it == data_.end() || it->first != key) {
      it = data_.emplace(it, key, V{});
    }
    return it->second;
  }

  template <typename... Args>
  std::pair<iterator, bool> emplace(const K& key, Args&&... args) {
    iterator it = lower_bound(key);
    if (it != data_.end() && it->first == key) return {it, false};
    it = data_.emplace(it, std::piecewise_construct, std::forward_as_tuple(key),
                       std::forward_as_tuple(std::forward<Args>(args)...));
    return {it, true};
  }

  iterator lower_bound(const K& key) {
    return std::lower_bound(data_.begin(), data_.end(), key,
                            [](const value_type& e, const K& k) { return e.first < k; });
  }
  const_iterator lower_bound(const K& key) const {
    return std::lower_bound(data_.begin(), data_.end(), key,
                            [](const value_type& e, const K& k) { return e.first < k; });
  }

  bool operator==(const FlatMap& other) const { return data_ == other.data_; }

 private:
  std::vector<value_type> data_;
};

}  // namespace blockdag
