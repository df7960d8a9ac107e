#include "index/rtree.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <queue>

namespace strr {

struct RTree::Node {
  bool leaf = true;
  Mbr box;
  std::vector<Entry> entries;                  // leaf payloads
  std::vector<std::unique_ptr<Node>> children;  // internal children

  void RecomputeBox() {
    box = Mbr();
    if (leaf) {
      for (const Entry& e : entries) box.Extend(e.box);
    } else {
      for (const auto& c : children) box.Extend(c->box);
    }
  }
};

RTree::RTree(size_t max_entries)
    : root_(std::make_unique<Node>()),
      max_entries_(max_entries < 4 ? 4 : max_entries) {}

RTree::~RTree() = default;
RTree::RTree(RTree&&) noexcept = default;
RTree& RTree::operator=(RTree&&) noexcept = default;

// --- Bulk load (STR) ---------------------------------------------------------

namespace {

/// Packs `items` (already leaves or subtrees) into parent nodes of fan-out
/// M using sort-tile-recursive on node-box centers.
std::vector<std::unique_ptr<RTree::Node>> PackLevel(
    std::vector<std::unique_ptr<RTree::Node>> items, size_t fanout) {
  using Node = RTree::Node;
  size_t n = items.size();
  size_t num_parents = (n + fanout - 1) / fanout;
  size_t slices = static_cast<size_t>(std::ceil(std::sqrt(
      static_cast<double>(num_parents))));
  // Sort by center x, slice, then sort each slice by center y.
  std::sort(items.begin(), items.end(),
            [](const std::unique_ptr<Node>& a, const std::unique_ptr<Node>& b) {
              return a->box.Center().x < b->box.Center().x;
            });
  size_t slice_size = (n + slices - 1) / slices;
  std::vector<std::unique_ptr<Node>> parents;
  for (size_t s = 0; s < slices; ++s) {
    size_t begin = s * slice_size;
    if (begin >= n) break;
    size_t end = std::min(begin + slice_size, n);
    std::sort(items.begin() + begin, items.begin() + end,
              [](const std::unique_ptr<Node>& a,
                 const std::unique_ptr<Node>& b) {
                return a->box.Center().y < b->box.Center().y;
              });
    for (size_t i = begin; i < end; i += fanout) {
      auto parent = std::make_unique<Node>();
      parent->leaf = false;
      size_t stop = std::min(i + fanout, end);
      for (size_t j = i; j < stop; ++j) {
        parent->children.push_back(std::move(items[j]));
      }
      parent->RecomputeBox();
      parents.push_back(std::move(parent));
    }
  }
  return parents;
}

}  // namespace

void RTree::BulkLoad(std::vector<Entry> entries) {
  size_ = entries.size();
  if (entries.empty()) {
    root_ = std::make_unique<Node>();
    return;
  }

  // Tile the entries into leaves.
  size_t n = entries.size();
  size_t num_leaves = (n + max_entries_ - 1) / max_entries_;
  size_t slices = static_cast<size_t>(
      std::ceil(std::sqrt(static_cast<double>(num_leaves))));
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    return a.box.Center().x < b.box.Center().x;
  });
  size_t slice_size = (n + slices - 1) / slices;
  std::vector<std::unique_ptr<Node>> leaves;
  for (size_t s = 0; s < slices; ++s) {
    size_t begin = s * slice_size;
    if (begin >= n) break;
    size_t end = std::min(begin + slice_size, n);
    std::sort(entries.begin() + begin, entries.begin() + end,
              [](const Entry& a, const Entry& b) {
                return a.box.Center().y < b.box.Center().y;
              });
    for (size_t i = begin; i < end; i += max_entries_) {
      auto leaf = std::make_unique<Node>();
      leaf->leaf = true;
      size_t stop = std::min(i + max_entries_, end);
      leaf->entries.assign(entries.begin() + i, entries.begin() + stop);
      leaf->RecomputeBox();
      leaves.push_back(std::move(leaf));
    }
  }

  while (leaves.size() > 1) {
    leaves = PackLevel(std::move(leaves), max_entries_);
  }
  root_ = std::move(leaves.front());
}

// --- Incremental insert ------------------------------------------------------

namespace {

/// Quadratic split of an overfull collection into two groups, returning the
/// index partition. Generic over anything exposing a box via `get_box`.
template <typename T, typename GetBox>
std::pair<std::vector<size_t>, std::vector<size_t>> QuadraticSplit(
    const std::vector<T>& items, const GetBox& get_box, size_t min_fill) {
  const size_t n = items.size();
  // Pick the pair wasting the most area as seeds.
  size_t seed_a = 0, seed_b = 1;
  double worst = -1.0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      Mbr combined = get_box(items[i]);
      combined.Extend(get_box(items[j]));
      double waste = combined.Area() - get_box(items[i]).Area() -
                     get_box(items[j]).Area();
      if (waste > worst) {
        worst = waste;
        seed_a = i;
        seed_b = j;
      }
    }
  }
  std::vector<size_t> group_a{seed_a}, group_b{seed_b};
  Mbr box_a = get_box(items[seed_a]);
  Mbr box_b = get_box(items[seed_b]);
  for (size_t i = 0; i < n; ++i) {
    if (i == seed_a || i == seed_b) continue;
    size_t remaining = n - group_a.size() - group_b.size() - 1;
    // Force-assign when a group must take everything left to reach min fill.
    if (group_a.size() + remaining + 1 <= min_fill) {
      group_a.push_back(i);
      box_a.Extend(get_box(items[i]));
      continue;
    }
    if (group_b.size() + remaining + 1 <= min_fill) {
      group_b.push_back(i);
      box_b.Extend(get_box(items[i]));
      continue;
    }
    double grow_a = box_a.EnlargementToCover(get_box(items[i]));
    double grow_b = box_b.EnlargementToCover(get_box(items[i]));
    if (grow_a < grow_b ||
        (grow_a == grow_b && group_a.size() <= group_b.size())) {
      group_a.push_back(i);
      box_a.Extend(get_box(items[i]));
    } else {
      group_b.push_back(i);
      box_b.Extend(get_box(items[i]));
    }
  }
  return {group_a, group_b};
}

}  // namespace

void RTree::InsertRecursive(Node* node, const Entry& entry, int target_level,
                            std::unique_ptr<Node>* split_out) {
  if (node->leaf) {
    node->entries.push_back(entry);
    node->box.Extend(entry.box);
    if (node->entries.size() > max_entries_) {
      auto [ga, gb] = QuadraticSplit(
          node->entries, [](const Entry& e) -> const Mbr& { return e.box; },
          max_entries_ / 2);
      auto sibling = std::make_unique<Node>();
      sibling->leaf = true;
      std::vector<Entry> keep;
      for (size_t i : ga) keep.push_back(node->entries[i]);
      for (size_t i : gb) sibling->entries.push_back(node->entries[i]);
      node->entries = std::move(keep);
      node->RecomputeBox();
      sibling->RecomputeBox();
      *split_out = std::move(sibling);
    }
    return;
  }

  // Choose the child needing least enlargement (ties: smaller area).
  size_t best = 0;
  double best_grow = std::numeric_limits<double>::max();
  double best_area = std::numeric_limits<double>::max();
  for (size_t i = 0; i < node->children.size(); ++i) {
    double grow = node->children[i]->box.EnlargementToCover(entry.box);
    double area = node->children[i]->box.Area();
    if (grow < best_grow || (grow == best_grow && area < best_area)) {
      best_grow = grow;
      best_area = area;
      best = i;
    }
  }
  std::unique_ptr<Node> child_split;
  InsertRecursive(node->children[best].get(), entry, target_level,
                  &child_split);
  node->box.Extend(entry.box);
  if (child_split != nullptr) {
    node->children.push_back(std::move(child_split));
    if (node->children.size() > max_entries_) {
      auto [ga, gb] = QuadraticSplit(
          node->children,
          [](const std::unique_ptr<Node>& c) -> const Mbr& { return c->box; },
          max_entries_ / 2);
      auto sibling = std::make_unique<Node>();
      sibling->leaf = false;
      std::vector<std::unique_ptr<Node>> keep;
      for (size_t i : ga) keep.push_back(std::move(node->children[i]));
      for (size_t i : gb) {
        sibling->children.push_back(std::move(node->children[i]));
      }
      node->children = std::move(keep);
      node->RecomputeBox();
      sibling->RecomputeBox();
      *split_out = std::move(sibling);
    }
  }
}

void RTree::Insert(const Mbr& box, uint32_t value) {
  std::unique_ptr<Node> split;
  InsertRecursive(root_.get(), Entry{box, value}, 0, &split);
  if (split != nullptr) {
    auto new_root = std::make_unique<Node>();
    new_root->leaf = false;
    new_root->children.push_back(std::move(root_));
    new_root->children.push_back(std::move(split));
    new_root->RecomputeBox();
    root_ = std::move(new_root);
  }
  ++size_;
}

// --- Queries -----------------------------------------------------------------

void RTree::SearchNode(const Node* node, const Mbr& query,
                       const std::function<bool(const Entry&)>& visit,
                       bool* keep_going) {
  if (!*keep_going) return;
  if (node->leaf) {
    for (const Entry& e : node->entries) {
      if (e.box.Intersects(query)) {
        if (!visit(e)) {
          *keep_going = false;
          return;
        }
      }
    }
    return;
  }
  for (const auto& child : node->children) {
    if (child->box.Intersects(query)) {
      SearchNode(child.get(), query, visit, keep_going);
      if (!*keep_going) return;
    }
  }
}

void RTree::SearchVisit(const Mbr& query,
                        const std::function<bool(const Entry&)>& visit) const {
  bool keep_going = true;
  if (size_ > 0) SearchNode(root_.get(), query, visit, &keep_going);
}

std::vector<uint32_t> RTree::Search(const Mbr& query) const {
  std::vector<uint32_t> out;
  SearchVisit(query, [&out](const Entry& e) {
    out.push_back(e.value);
    return true;
  });
  return out;
}

std::vector<uint32_t> RTree::Nearest(const XyPoint& p, size_t k) const {
  std::vector<uint32_t> out;
  if (size_ == 0 || k == 0) return out;

  struct QueueItem {
    double dist;
    const Node* node;    // null when this is an entry
    const Entry* entry;  // null when this is a node
    bool operator>(const QueueItem& o) const { return dist > o.dist; }
  };
  std::priority_queue<QueueItem, std::vector<QueueItem>, std::greater<>> queue;
  queue.push({root_->box.MinDistance(p), root_.get(), nullptr});
  while (!queue.empty() && out.size() < k) {
    QueueItem top = queue.top();
    queue.pop();
    if (top.entry != nullptr) {
      out.push_back(top.entry->value);
      continue;
    }
    const Node* node = top.node;
    if (node->leaf) {
      for (const Entry& e : node->entries) {
        queue.push({e.box.MinDistance(p), nullptr, &e});
      }
    } else {
      for (const auto& child : node->children) {
        queue.push({child->box.MinDistance(p), child.get(), nullptr});
      }
    }
  }
  return out;
}

// --- Invariants --------------------------------------------------------------

namespace {
// No minimum fill is checked: bulk-loaded rightmost nodes may be underfull.
bool CheckNode(const RTree::Node* node, size_t max_entries) {
  size_t count = node->leaf ? node->entries.size() : node->children.size();
  if (count > max_entries) return false;
  Mbr recomputed;
  if (node->leaf) {
    for (const auto& e : node->entries) recomputed.Extend(e.box);
  } else {
    for (const auto& c : node->children) {
      recomputed.Extend(c->box);
      if (!CheckNode(c.get(), max_entries)) return false;
    }
  }
  if (count > 0 && !(recomputed == node->box)) return false;
  return true;
}

int NodeHeight(const RTree::Node* node) {
  if (node->leaf) return 1;
  int h = 0;
  for (const auto& c : node->children) h = std::max(h, NodeHeight(c.get()));
  return h + 1;
}
}  // namespace

bool RTree::CheckInvariants() const {
  if (size_ == 0) return true;
  return CheckNode(root_.get(), max_entries_);
}

int RTree::Height() const { return size_ == 0 ? 0 : NodeHeight(root_.get()); }

}  // namespace strr
