// Persistent ordered map: a path-copying AVL tree.
//
// The interpreter's B.PIs maps every label whose instance a server has
// started to that instance's state, and Algorithm 2 line 4 copies the
// parent's map into every block. With a flat map that copy costs one entry
// per label ever seen, so per-block cost grows with history. Here a copy
// shares the whole tree (one reference-count bump), and insert_or_assign
// copies only the O(log n) nodes on the root-to-key path; every other node
// stays shared with the maps it came from. Nodes never change once built,
// so writing to one map never shows through another.
//
// Surface: find (a pointer to the value, or nullptr), insert_or_assign,
// size/empty, and ascending-key const iteration over pair<const K, V>
// (structured bindings work), matching std::map's order. There is no erase:
// labels never leave B.PIs.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

namespace blockdag {

template <typename K, typename V>
class PersistentMap {
  struct Node;
  using NodePtr = std::shared_ptr<const Node>;
  // An AVL tree of height 64 would hold more than 10^13 keys.
  static constexpr std::size_t kMaxHeight = 64;

 public:
  using value_type = std::pair<const K, V>;

  // Ascending-key iteration; enough for range-for.
  class const_iterator {
   public:
    const_iterator() = default;

    const value_type& operator*() const { return stack_[depth_ - 1]->kv; }
    const value_type* operator->() const { return &stack_[depth_ - 1]->kv; }

    const_iterator& operator++() {
      const Node* done = stack_[--depth_];
      push_left(done->right.get());
      return *this;
    }

    bool operator==(const const_iterator& other) const {
      return top() == other.top();
    }

   private:
    friend class PersistentMap;
    explicit const_iterator(const Node* root) { push_left(root); }

    void push_left(const Node* n) {
      for (; n != nullptr; n = n->left.get()) {
        assert(depth_ < kMaxHeight);
        stack_[depth_++] = n;
      }
    }
    const Node* top() const { return depth_ == 0 ? nullptr : stack_[depth_ - 1]; }

    // The unvisited ancestors of the current node, current on top.
    const Node* stack_[kMaxHeight] = {};
    std::size_t depth_ = 0;
  };

  const_iterator begin() const { return const_iterator(root_.get()); }
  const_iterator end() const { return const_iterator(); }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  const V* find(const K& key) const {
    const Node* n = root_.get();
    while (n != nullptr) {
      if (key < n->kv.first) {
        n = n->left.get();
      } else if (n->kv.first < key) {
        n = n->right.get();
      } else {
        return &n->kv.second;
      }
    }
    return nullptr;
  }

  void insert_or_assign(const K& key, V value) {
    bool added = false;
    root_ = insert(root_, key, std::move(value), added);
    if (added) ++size_;
  }

 private:
  struct Node {
    Node(const K& k, V v, NodePtr l, NodePtr r)
        : kv(k, std::move(v)),
          left(std::move(l)),
          right(std::move(r)),
          height(static_cast<std::uint8_t>(
              1 + std::max(height_of(left), height_of(right)))) {}

    value_type kv;
    NodePtr left;
    NodePtr right;
    std::uint8_t height;
  };

  static int height_of(const NodePtr& n) { return n ? n->height : 0; }

  static NodePtr make(const K& k, V v, NodePtr l, NodePtr r) {
    return std::make_shared<const Node>(k, std::move(v), std::move(l), std::move(r));
  }

  // A new node (k, v, l, r) with l and r valid AVL trees whose heights
  // differ by at most 2, rotated so the heights differ by at most 1.
  static NodePtr balance(const K& k, V v, NodePtr l, NodePtr r) {
    const int hl = height_of(l);
    const int hr = height_of(r);
    if (hl > hr + 1) {
      if (height_of(l->left) >= height_of(l->right)) {
        return make(l->kv.first, l->kv.second, l->left,
                    make(k, std::move(v), l->right, std::move(r)));
      }
      const Node& lr = *l->right;
      return make(lr.kv.first, lr.kv.second,
                  make(l->kv.first, l->kv.second, l->left, lr.left),
                  make(k, std::move(v), lr.right, std::move(r)));
    }
    if (hr > hl + 1) {
      if (height_of(r->right) >= height_of(r->left)) {
        return make(r->kv.first, r->kv.second,
                    make(k, std::move(v), std::move(l), r->left), r->right);
      }
      const Node& rl = *r->left;
      return make(rl.kv.first, rl.kv.second,
                  make(k, std::move(v), std::move(l), rl.left),
                  make(r->kv.first, r->kv.second, rl.right, r->right));
    }
    return make(k, std::move(v), std::move(l), std::move(r));
  }

  // Returns the root of a new tree holding `n`'s entries plus (key, value);
  // only nodes on the path to `key` (and any rotated ones) are new.
  static NodePtr insert(const NodePtr& n, const K& key, V value, bool& added) {
    if (!n) {
      added = true;
      return make(key, std::move(value), nullptr, nullptr);
    }
    if (key < n->kv.first) {
      return balance(n->kv.first, n->kv.second,
                     insert(n->left, key, std::move(value), added), n->right);
    }
    if (n->kv.first < key) {
      return balance(n->kv.first, n->kv.second, n->left,
                     insert(n->right, key, std::move(value), added));
    }
    return make(key, std::move(value), n->left, n->right);
  }

  NodePtr root_;
  std::size_t size_ = 0;
};

}  // namespace blockdag
