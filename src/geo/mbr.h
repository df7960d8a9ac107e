// Minimum bounding rectangle in projected (meter) space.
//
// Used as the R-tree key type and as the per-road-segment spatial summary
// the paper's road-network model calls for.
#ifndef STRR_GEO_MBR_H_
#define STRR_GEO_MBR_H_

#include <algorithm>
#include <limits>
#include <ostream>

#include "geo/point.h"

namespace strr {

/// Axis-aligned rectangle; default-constructed state is *empty* (inverted
/// bounds) and behaves as the identity for Extend/Union.
class Mbr {
 public:
  Mbr()
      : min_x_(std::numeric_limits<double>::max()),
        min_y_(std::numeric_limits<double>::max()),
        max_x_(std::numeric_limits<double>::lowest()),
        max_y_(std::numeric_limits<double>::lowest()) {}

  Mbr(double min_x, double min_y, double max_x, double max_y)
      : min_x_(min_x), min_y_(min_y), max_x_(max_x), max_y_(max_y) {}

  static Mbr FromPoint(const XyPoint& p) { return Mbr(p.x, p.y, p.x, p.y); }

  static Mbr FromPoints(const XyPoint& a, const XyPoint& b) {
    return Mbr(std::min(a.x, b.x), std::min(a.y, b.y), std::max(a.x, b.x),
               std::max(a.y, b.y));
  }

  bool IsEmpty() const { return min_x_ > max_x_ || min_y_ > max_y_; }

  double min_x() const { return min_x_; }
  double min_y() const { return min_y_; }
  double max_x() const { return max_x_; }
  double max_y() const { return max_y_; }

  double Width() const { return IsEmpty() ? 0.0 : max_x_ - min_x_; }
  double Height() const { return IsEmpty() ? 0.0 : max_y_ - min_y_; }
  double Area() const { return Width() * Height(); }
  double Perimeter() const { return 2.0 * (Width() + Height()); }

  XyPoint Center() const {
    return {(min_x_ + max_x_) / 2.0, (min_y_ + max_y_) / 2.0};
  }

  /// Grows this rectangle to cover `p`.
  void Extend(const XyPoint& p) {
    min_x_ = std::min(min_x_, p.x);
    min_y_ = std::min(min_y_, p.y);
    max_x_ = std::max(max_x_, p.x);
    max_y_ = std::max(max_y_, p.y);
  }

  /// Grows this rectangle to cover `other`.
  void Extend(const Mbr& other) {
    if (other.IsEmpty()) return;
    min_x_ = std::min(min_x_, other.min_x_);
    min_y_ = std::min(min_y_, other.min_y_);
    max_x_ = std::max(max_x_, other.max_x_);
    max_y_ = std::max(max_y_, other.max_y_);
  }

  /// Expands every side outward by `margin` meters.
  Mbr Expanded(double margin) const {
    if (IsEmpty()) return *this;
    return Mbr(min_x_ - margin, min_y_ - margin, max_x_ + margin,
               max_y_ + margin);
  }

  bool Intersects(const Mbr& o) const {
    if (IsEmpty() || o.IsEmpty()) return false;
    return min_x_ <= o.max_x_ && o.min_x_ <= max_x_ && min_y_ <= o.max_y_ &&
           o.min_y_ <= max_y_;
  }

  bool Contains(const XyPoint& p) const {
    return !IsEmpty() && p.x >= min_x_ && p.x <= max_x_ && p.y >= min_y_ &&
           p.y <= max_y_;
  }

  bool Contains(const Mbr& o) const {
    if (IsEmpty() || o.IsEmpty()) return false;
    return o.min_x_ >= min_x_ && o.max_x_ <= max_x_ && o.min_y_ >= min_y_ &&
           o.max_y_ <= max_y_;
  }

  /// Minimum Euclidean distance from `p` to this rectangle (0 inside).
  double MinDistance(const XyPoint& p) const {
    if (IsEmpty()) return std::numeric_limits<double>::max();
    double dx = std::max({min_x_ - p.x, 0.0, p.x - max_x_});
    double dy = std::max({min_y_ - p.y, 0.0, p.y - max_y_});
    return std::sqrt(dx * dx + dy * dy);
  }

  bool operator==(const Mbr& o) const {
    if (IsEmpty() && o.IsEmpty()) return true;
    return min_x_ == o.min_x_ && min_y_ == o.min_y_ && max_x_ == o.max_x_ &&
           max_y_ == o.max_y_;
  }

 private:
  double min_x_, min_y_, max_x_, max_y_;
};

inline std::ostream& operator<<(std::ostream& os, const Mbr& m) {
  if (m.IsEmpty()) return os << "[empty]";
  return os << "[" << m.min_x() << "," << m.min_y() << " .. " << m.max_x()
            << "," << m.max_y() << "]";
}

}  // namespace strr

#endif  // STRR_GEO_MBR_H_
