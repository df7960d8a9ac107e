#include "geo/rtree.h"

#include <algorithm>
#include <cmath>
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
