// A small map from an id to a value, kept as one vector of entries in
// ascending id. It holds both sides of ClusterState's placement index: a
// job's shares by server and a server's jobs. The lists are short (a server
// hosts at most its GPUs' worth of jobs, a job spans a few servers), so a
// binary search over contiguous entries beats a node-based tree, and walking
// the entries visits the ids in the same ascending order as a std::map.
//
// Iterator rule: inserting a new id (operator[]) and erase invalidate every
// iterator, pointer and reference into the map, not only the erased entry's.
// A loop that mutates the map it walks copies the entries first or re-finds
// its place by id after each mutation (DESIGN.md "Placement index").
#ifndef SRC_CLUSTER_SORTED_ID_MAP_H_
#define SRC_CLUSTER_SORTED_ID_MAP_H_

#include <algorithm>
#include <initializer_list>
#include <utility>
#include <vector>

#include "src/common/check.h"

namespace lyra {

template <typename Id, typename Value>
class SortedIdMap;

// True if the map's ids are strictly ascending: the order every operation
// keeps, checked by the constructor and by ClusterState::AuditInvariants.
template <typename Id, typename Value>
bool IdsStrictlyAscending(const SortedIdMap<Id, Value>& map) {
  return std::adjacent_find(map.begin(), map.end(), [](const auto& a, const auto& b) {
           return !(a.first < b.first);
         }) == map.end();
}

template <typename Id, typename Value>
class SortedIdMap {
 public:
  using value_type = std::pair<Id, Value>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  SortedIdMap() = default;
  // The entries must be in strictly ascending id.
  SortedIdMap(std::initializer_list<value_type> entries) : entries_(entries) {
    LYRA_CHECK(IdsStrictlyAscending(*this));
  }

  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const { return entries_.end(); }
  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  iterator find(Id id) {
    const auto it = LowerBound(id);
    return it != entries_.end() && it->first == id ? it : entries_.end();
  }
  const_iterator find(Id id) const { return const_cast<SortedIdMap*>(this)->find(id); }

  // The first entry with an id above `id`.
  const_iterator upper_bound(Id id) const {
    return std::upper_bound(entries_.begin(), entries_.end(), id,
                            [](Id key, const value_type& e) { return key < e.first; });
  }

  // The value of `id`, inserted value-initialized if absent.
  Value& operator[](Id id) {
    // Ids mostly arrive in ascending order: append without a search.
    if (entries_.empty() || entries_.back().first < id) {
      return entries_.emplace_back(id, Value{}).second;
    }
    const auto it = LowerBound(id);
    if (it->first == id) {
      return it->second;
    }
    return entries_.emplace(it, id, Value{})->second;
  }

  void erase(const_iterator pos) { entries_.erase(pos); }

  friend bool operator==(const SortedIdMap& a, const SortedIdMap& b) {
    return a.entries_ == b.entries_;
  }

 private:
  iterator LowerBound(Id id) {
    return std::lower_bound(entries_.begin(), entries_.end(), id,
                            [](const value_type& e, Id key) { return e.first < key; });
  }

  std::vector<value_type> entries_;
};

}  // namespace lyra

#endif  // SRC_CLUSTER_SORTED_ID_MAP_H_
