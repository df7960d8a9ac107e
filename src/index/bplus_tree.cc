#include "index/bplus_tree.h"

#include <algorithm>
#include <cassert>

namespace strr {

struct BPlusTree::Node {
  bool leaf = true;
  std::vector<Key> keys;
  // Leaves: values parallel to keys. Internals: children.size() ==
  // keys.size() + 1; keys[i] is the smallest key in children[i+1]'s subtree.
  std::vector<Value> values;
  std::vector<std::unique_ptr<Node>> children;
  Node* next = nullptr;  // leaf chain
};

BPlusTree::BPlusTree(size_t order)
    : root_(std::make_unique<Node>()), order_(order < 4 ? 4 : order) {}

BPlusTree::~BPlusTree() = default;
BPlusTree::BPlusTree(BPlusTree&&) noexcept = default;
BPlusTree& BPlusTree::operator=(BPlusTree&&) noexcept = default;

namespace {

/// Index of the child a key descends into within an internal node.
size_t ChildIndex(const std::vector<BPlusTree::Key>& keys,
                  BPlusTree::Key key) {
  // keys[i] = min key of children[i+1]; descend right of the last key <= key.
  size_t i = static_cast<size_t>(
      std::upper_bound(keys.begin(), keys.end(), key) - keys.begin());
  return i;
}

}  // namespace

void BPlusTree::Insert(Key key, Value value) {
  // Iterative descent, remembering the path for splits.
  std::vector<Node*> path;
  Node* node = root_.get();
  while (!node->leaf) {
    path.push_back(node);
    node = node->children[ChildIndex(node->keys, key)].get();
  }

  auto it = std::lower_bound(node->keys.begin(), node->keys.end(), key);
  size_t pos = static_cast<size_t>(it - node->keys.begin());
  if (it != node->keys.end() && *it == key) {
    node->values[pos] = value;  // overwrite
    return;
  }
  node->keys.insert(it, key);
  node->values.insert(node->values.begin() + pos, value);
  ++size_;

  // Split bottom-up while overfull.
  Node* current = node;
  std::unique_ptr<Node> carry;  // new right sibling created by a split
  Key carry_key = 0;
  while (current->keys.size() > order_) {
    size_t mid = current->keys.size() / 2;
    auto sibling = std::make_unique<Node>();
    sibling->leaf = current->leaf;
    if (current->leaf) {
      sibling->keys.assign(current->keys.begin() + mid, current->keys.end());
      sibling->values.assign(current->values.begin() + mid,
                             current->values.end());
      current->keys.resize(mid);
      current->values.resize(mid);
      sibling->next = current->next;
      current->next = sibling.get();
      carry_key = sibling->keys.front();
    } else {
      // Internal: middle key moves up, does not stay.
      carry_key = current->keys[mid];
      sibling->keys.assign(current->keys.begin() + mid + 1,
                           current->keys.end());
      for (size_t i = mid + 1; i < current->children.size(); ++i) {
        sibling->children.push_back(std::move(current->children[i]));
      }
      current->keys.resize(mid);
      current->children.resize(mid + 1);
    }
    carry = std::move(sibling);

    if (path.empty()) {
      // Root split: grow a new root.
      auto new_root = std::make_unique<Node>();
      new_root->leaf = false;
      new_root->keys.push_back(carry_key);
      new_root->children.push_back(std::move(root_));
      new_root->children.push_back(std::move(carry));
      root_ = std::move(new_root);
      return;
    }
    Node* parent = path.back();
    path.pop_back();
    size_t child_pos = ChildIndex(parent->keys, carry_key);
    // carry_key splits current (at child_pos... find current's slot).
    // Insert carry right after current's position.
    size_t cur_pos = 0;
    for (; cur_pos < parent->children.size(); ++cur_pos) {
      if (parent->children[cur_pos].get() == current) break;
    }
    assert(cur_pos < parent->children.size());
    (void)child_pos;
    parent->keys.insert(parent->keys.begin() + cur_pos, carry_key);
    parent->children.insert(parent->children.begin() + cur_pos + 1,
                            std::move(carry));
    current = parent;
  }
}

std::optional<BPlusTree::Value> BPlusTree::Find(Key key) const {
  const Node* node = root_.get();
  while (!node->leaf) {
    node = node->children[ChildIndex(node->keys, key)].get();
  }
  auto it = std::lower_bound(node->keys.begin(), node->keys.end(), key);
  if (it != node->keys.end() && *it == key) {
    return node->values[static_cast<size_t>(it - node->keys.begin())];
  }
  return std::nullopt;
}

std::optional<std::pair<BPlusTree::Key, BPlusTree::Value>> BPlusTree::Floor(
    Key key) const {
  if (size_ == 0) return std::nullopt;
  const Node* node = root_.get();
  while (!node->leaf) {
    node = node->children[ChildIndex(node->keys, key)].get();
  }
  // Largest key <= query within this leaf; if none, it lives in an earlier
  // leaf — but by descent, this leaf is the one whose range covers `key`,
  // so "none here" means key precedes the whole tree... unless intermediate
  // separators equal key boundaries; walk the leaf chain is forward-only,
  // so handle by re-scanning from the leftmost leaf only in that rare case.
  auto it = std::upper_bound(node->keys.begin(), node->keys.end(), key);
  if (it != node->keys.begin()) {
    size_t pos = static_cast<size_t>(it - node->keys.begin()) - 1;
    return std::make_pair(node->keys[pos], node->values[pos]);
  }
  // key is smaller than every key in its covering leaf: find the previous
  // leaf by a full scan (O(tree) but effectively never taken for slot
  // lookups, which always hit floor within the leaf).
  const Node* prev = nullptr;
  const Node* walk = root_.get();
  while (!walk->leaf) walk = walk->children.front().get();
  while (walk != nullptr && walk != node) {
    prev = walk;
    walk = walk->next;
  }
  if (prev == nullptr || prev->keys.empty() || prev->keys.back() > key) {
    return std::nullopt;
  }
  return std::make_pair(prev->keys.back(), prev->values.back());
}

void BPlusTree::Range(Key lo, Key hi,
                      const std::function<bool(Key, Value)>& visit) const {
  if (size_ == 0 || lo > hi) return;
  const Node* node = root_.get();
  while (!node->leaf) {
    node = node->children[ChildIndex(node->keys, lo)].get();
  }
  while (node != nullptr) {
    auto it = std::lower_bound(node->keys.begin(), node->keys.end(), lo);
    for (size_t i = static_cast<size_t>(it - node->keys.begin());
         i < node->keys.size(); ++i) {
      if (node->keys[i] > hi) return;
      if (!visit(node->keys[i], node->values[i])) return;
    }
    node = node->next;
  }
}

int BPlusTree::Height() const {
  if (size_ == 0) return 0;
  int h = 1;
  const Node* node = root_.get();
  while (!node->leaf) {
    node = node->children.front().get();
    ++h;
  }
  return h;
}

bool BPlusTree::CheckInvariants() const {
  // Keys sorted within nodes, leaf chain sorted globally, internal fan-out
  // consistent.
  struct Checker {
    size_t order;
    bool ok = true;
    void Visit(const Node* node) {
      if (!ok) return;
      if (!std::is_sorted(node->keys.begin(), node->keys.end())) {
        ok = false;
        return;
      }
      if (node->keys.size() > order) {
        ok = false;
        return;
      }
      if (node->leaf) {
        if (node->keys.size() != node->values.size()) ok = false;
        return;
      }
      if (node->children.size() != node->keys.size() + 1) {
        ok = false;
        return;
      }
      for (const auto& c : node->children) Visit(c.get());
    }
  } checker{order_};
  checker.Visit(root_.get());
  if (!checker.ok) return false;

  // Leaf chain is globally sorted and covers exactly `size_` entries.
  const Node* leaf = root_.get();
  while (!leaf->leaf) leaf = leaf->children.front().get();
  size_t seen = 0;
  bool first = true;
  Key prev{};
  while (leaf != nullptr) {
    for (size_t i = 0; i < leaf->keys.size(); ++i) {
      if (!first && leaf->keys[i] <= prev) return false;
      prev = leaf->keys[i];
      first = false;
      ++seen;
    }
    leaf = leaf->next;
  }
  return seen == size_;
}

}  // namespace strr
