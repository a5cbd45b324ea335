// Sorted-vector set and map for small keyed tables on hot paths.
//
// The protocol layer keeps many per-process id sets (suspicions, isolation,
// round bookkeeping) that hold at most a dozen entries but are consulted on
// every packet.  std::set allocates a tree node per insert and chases
// pointers per lookup; a sorted vector does neither, keeps ascending
// iteration order (so behaviour that depends on ordered walks is unchanged),
// and reuses its capacity across clear()s.  FlatMap applies the same
// layout to keyed tables (the soak apps' replica tables, the app oracles'
// indexes), whose keys mostly arrive in ascending order, so an insert is
// usually an append.  Only the std::set / std::map surface the codebase
// actually uses is provided.
#pragma once

#include <algorithm>
#include <cstddef>
#include <tuple>
#include <utility>
#include <vector>

namespace gmpx {

template <typename T>
class FlatSet {
 public:
  using const_iterator = typename std::vector<T>::const_iterator;
  using value_type = T;

  std::pair<const_iterator, bool> insert(const T& v) {
    if (v_.capacity() == 0) v_.reserve(8);  // one allocation, not a 1-2-4 ramp
    auto it = std::lower_bound(v_.begin(), v_.end(), v);
    if (it != v_.end() && *it == v) return {it, false};
    it = v_.insert(it, v);
    return {it, true};
  }

  size_t erase(const T& v) {
    auto it = std::lower_bound(v_.begin(), v_.end(), v);
    if (it == v_.end() || *it != v) return 0;
    v_.erase(it);
    return 1;
  }

  size_t count(const T& v) const {
    return std::binary_search(v_.begin(), v_.end(), v) ? 1 : 0;
  }
  bool contains(const T& v) const { return count(v) > 0; }

  bool empty() const { return v_.empty(); }
  size_t size() const { return v_.size(); }
  void clear() { v_.clear(); }  // keeps capacity: round state reuses it

  const_iterator begin() const { return v_.begin(); }
  const_iterator end() const { return v_.end(); }

  friend bool operator==(const FlatSet&, const FlatSet&) = default;

 private:
  std::vector<T> v_;  // ascending, unique
};

/// Sorted-vector map: ascending-key iteration like std::map.  Any insert
/// may move entries, so it invalidates iterators and references; mutable
/// iteration must not change keys.
template <typename K, typename V>
class FlatMap {
 public:
  using value_type = std::pair<K, V>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  /// Inserts (k, V(args...)) unless `k` is present; like std::map, the
  /// value is only built on insert.
  template <typename... Args>
  std::pair<iterator, bool> try_emplace(const K& k, Args&&... args) {
    if (v_.capacity() == 0) v_.reserve(8);
    auto it = v_.end();
    if (!v_.empty() && !(v_.back().first < k)) {  // else ascending arrival: append
      it = std::lower_bound(v_.begin(), v_.end(), k, key_less);
      if (it->first == k) return {it, false};
    }
    it = v_.emplace(it, std::piecewise_construct, std::forward_as_tuple(k),
                    std::forward_as_tuple(std::forward<Args>(args)...));
    return {it, true};
  }

  V& operator[](const K& k) { return try_emplace(k).first->second; }

  const_iterator find(const K& k) const {
    auto it = std::lower_bound(v_.begin(), v_.end(), k, key_less);
    return it != v_.end() && it->first == k ? it : v_.end();
  }

  bool empty() const { return v_.empty(); }
  size_t size() const { return v_.size(); }

  iterator begin() { return v_.begin(); }
  iterator end() { return v_.end(); }
  const_iterator begin() const { return v_.begin(); }
  const_iterator end() const { return v_.end(); }

  friend bool operator==(const FlatMap&, const FlatMap&) = default;

 private:
  static bool key_less(const value_type& e, const K& k) { return e.first < k; }

  std::vector<value_type> v_;  // ascending by key, unique keys
};

}  // namespace gmpx
