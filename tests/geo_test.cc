// Tests for geo primitives: points/projection, MBR, polyline, GeoJSON.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>

#include "geo/geojson.h"
#include "geo/mbr.h"
#include "geo/point.h"
#include "geo/polyline.h"

namespace strr {
namespace {

// --- Points / projection -----------------------------------------------------

TEST(GeoPointTest, HaversineKnownDistance) {
  // One degree of latitude is ~111.2 km anywhere.
  GeoPoint a{22.0, 114.0}, b{23.0, 114.0};
  EXPECT_NEAR(HaversineMeters(a, b), 111195.0, 300.0);
}

TEST(GeoPointTest, HaversineZero) {
  GeoPoint p{22.5, 114.05};
  EXPECT_DOUBLE_EQ(HaversineMeters(p, p), 0.0);
}

TEST(GeoPointTest, HaversineSymmetric) {
  GeoPoint a{22.5, 114.0}, b{22.6, 114.2};
  EXPECT_DOUBLE_EQ(HaversineMeters(a, b), HaversineMeters(b, a));
}

TEST(ProjectionTest, OriginMapsToZero) {
  Projection proj({22.53, 114.05});
  XyPoint xy = proj.ToXy({22.53, 114.05});
  EXPECT_NEAR(xy.x, 0.0, 1e-9);
  EXPECT_NEAR(xy.y, 0.0, 1e-9);
}

TEST(ProjectionTest, RoundTrip) {
  Projection proj({22.53, 114.05});
  GeoPoint g{22.61, 114.21};
  GeoPoint back = proj.ToGeo(proj.ToXy(g));
  EXPECT_NEAR(back.lat, g.lat, 1e-9);
  EXPECT_NEAR(back.lon, g.lon, 1e-9);
}

TEST(ProjectionTest, DistancesMatchHaversineLocally) {
  Projection proj({22.53, 114.05});
  GeoPoint a{22.55, 114.10}, b{22.58, 114.02};
  double planar = Distance(proj.ToXy(a), proj.ToXy(b));
  double sphere = HaversineMeters(a, b);
  EXPECT_NEAR(planar / sphere, 1.0, 0.002);  // <0.2% over ~10 km
}

TEST(XyPointTest, VectorOps) {
  XyPoint a{3.0, 4.0};
  EXPECT_DOUBLE_EQ(a.Norm(), 5.0);
  XyPoint b = a * 2.0;
  EXPECT_DOUBLE_EQ(b.x, 6.0);
  XyPoint c = b - a;
  EXPECT_DOUBLE_EQ(c.Norm(), 5.0);
  EXPECT_DOUBLE_EQ(a.Dot(XyPoint{1.0, 0.0}), 3.0);
}

// --- Mbr ---------------------------------------------------------------------

TEST(MbrTest, DefaultIsEmpty) {
  Mbr m;
  EXPECT_TRUE(m.IsEmpty());
  EXPECT_DOUBLE_EQ(m.Area(), 0.0);
}

TEST(MbrTest, ExtendPoint) {
  Mbr m;
  m.Extend(XyPoint{1.0, 2.0});
  EXPECT_FALSE(m.IsEmpty());
  EXPECT_DOUBLE_EQ(m.Area(), 0.0);  // degenerate point box
  m.Extend(XyPoint{3.0, 5.0});
  EXPECT_DOUBLE_EQ(m.Width(), 2.0);
  EXPECT_DOUBLE_EQ(m.Height(), 3.0);
  EXPECT_DOUBLE_EQ(m.Area(), 6.0);
}

TEST(MbrTest, ExtendEmptyIsIdentity) {
  Mbr m(0, 0, 2, 2);
  Mbr empty;
  m.Extend(empty);
  EXPECT_DOUBLE_EQ(m.Area(), 4.0);
}

TEST(MbrTest, IntersectsOverlap) {
  Mbr a(0, 0, 2, 2), b(1, 1, 3, 3), c(5, 5, 6, 6);
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_TRUE(b.Intersects(a));
  EXPECT_FALSE(a.Intersects(c));
}

TEST(MbrTest, IntersectsTouchingEdge) {
  Mbr a(0, 0, 1, 1), b(1, 0, 2, 1);
  EXPECT_TRUE(a.Intersects(b));  // closed rectangles share the edge
}

TEST(MbrTest, EmptyNeverIntersects) {
  Mbr a(0, 0, 10, 10), empty;
  EXPECT_FALSE(a.Intersects(empty));
  EXPECT_FALSE(empty.Intersects(a));
}

TEST(MbrTest, ContainsPointAndBox) {
  Mbr a(0, 0, 4, 4);
  EXPECT_TRUE(a.Contains(XyPoint{2, 2}));
  EXPECT_TRUE(a.Contains(XyPoint{0, 0}));  // boundary inclusive
  EXPECT_FALSE(a.Contains(XyPoint{5, 2}));
  EXPECT_TRUE(a.Contains(Mbr(1, 1, 2, 2)));
  EXPECT_FALSE(a.Contains(Mbr(3, 3, 5, 5)));
}

TEST(MbrTest, MinDistance) {
  Mbr a(0, 0, 2, 2);
  EXPECT_DOUBLE_EQ(a.MinDistance(XyPoint{1, 1}), 0.0);   // inside
  EXPECT_DOUBLE_EQ(a.MinDistance(XyPoint{4, 1}), 2.0);   // right side
  EXPECT_DOUBLE_EQ(a.MinDistance(XyPoint{5, 6}), 5.0);   // corner 3-4-5
}

TEST(MbrTest, ExpandedGrowsAllSides) {
  Mbr a(1, 1, 2, 2);
  Mbr e = a.Expanded(0.5);
  EXPECT_DOUBLE_EQ(e.min_x(), 0.5);
  EXPECT_DOUBLE_EQ(e.max_y(), 2.5);
  EXPECT_DOUBLE_EQ(e.Area(), 4.0);
}

TEST(MbrTest, CenterAndPerimeter) {
  Mbr a(0, 0, 4, 2);
  EXPECT_DOUBLE_EQ(a.Center().x, 2.0);
  EXPECT_DOUBLE_EQ(a.Center().y, 1.0);
  EXPECT_DOUBLE_EQ(a.Perimeter(), 12.0);
}

// --- Polyline ----------------------------------------------------------------

TEST(PolylineTest, LengthOfStraightLine) {
  Polyline line({{0, 0}, {3, 4}});
  EXPECT_DOUBLE_EQ(line.Length(), 5.0);
}

TEST(PolylineTest, LengthOfMultiVertex) {
  Polyline line({{0, 0}, {1, 0}, {1, 1}});
  EXPECT_DOUBLE_EQ(line.Length(), 2.0);
}

TEST(PolylineTest, EmptyAndSinglePoint) {
  Polyline empty;
  EXPECT_TRUE(empty.IsEmpty());
  EXPECT_DOUBLE_EQ(empty.Length(), 0.0);
  Polyline single({{1, 1}});
  EXPECT_TRUE(single.IsEmpty());
  EXPECT_DOUBLE_EQ(single.Length(), 0.0);
}

TEST(PolylineTest, InterpolateEndpointsAndMidpoint) {
  Polyline line({{0, 0}, {10, 0}});
  EXPECT_DOUBLE_EQ(line.Interpolate(0.0).x, 0.0);
  EXPECT_DOUBLE_EQ(line.Interpolate(10.0).x, 10.0);
  EXPECT_DOUBLE_EQ(line.Interpolate(5.0).x, 5.0);
  // Clamping.
  EXPECT_DOUBLE_EQ(line.Interpolate(-3.0).x, 0.0);
  EXPECT_DOUBLE_EQ(line.Interpolate(99.0).x, 10.0);
}

TEST(PolylineTest, InterpolateAcrossVertices) {
  Polyline line({{0, 0}, {1, 0}, {1, 2}});
  XyPoint p = line.Interpolate(2.0);  // 1m along second leg
  EXPECT_DOUBLE_EQ(p.x, 1.0);
  EXPECT_DOUBLE_EQ(p.y, 1.0);
}

TEST(PolylineTest, ProjectOntoSegmentInterior) {
  Polyline line({{0, 0}, {10, 0}});
  auto proj = line.Project({4.0, 3.0});
  EXPECT_DOUBLE_EQ(proj.distance, 3.0);
  EXPECT_DOUBLE_EQ(proj.offset, 4.0);
  EXPECT_DOUBLE_EQ(proj.closest.x, 4.0);
}

TEST(PolylineTest, ProjectClampsToEndpoints) {
  Polyline line({{0, 0}, {10, 0}});
  auto proj = line.Project({-5.0, 0.0});
  EXPECT_DOUBLE_EQ(proj.offset, 0.0);
  EXPECT_DOUBLE_EQ(proj.distance, 5.0);
  proj = line.Project({15.0, 0.0});
  EXPECT_DOUBLE_EQ(proj.offset, 10.0);
}

TEST(PolylineTest, ProjectPicksNearestLeg) {
  Polyline line({{0, 0}, {10, 0}, {10, 10}});
  auto proj = line.Project({9.0, 8.0});
  EXPECT_EQ(proj.segment_index, 1u);
  EXPECT_DOUBLE_EQ(proj.closest.x, 10.0);
  EXPECT_DOUBLE_EQ(proj.closest.y, 8.0);
  EXPECT_DOUBLE_EQ(proj.offset, 18.0);
}

TEST(PolylineTest, SplitAtMidpoint) {
  Polyline line({{0, 0}, {10, 0}});
  auto pieces = line.SplitAt({5.0});
  ASSERT_EQ(pieces.size(), 2u);
  EXPECT_DOUBLE_EQ(pieces[0].Length(), 5.0);
  EXPECT_DOUBLE_EQ(pieces[1].Length(), 5.0);
  EXPECT_DOUBLE_EQ(pieces[0].points().back().x, 5.0);
  EXPECT_DOUBLE_EQ(pieces[1].points().front().x, 5.0);
}

TEST(PolylineTest, SplitPreservesTotalLength) {
  Polyline line({{0, 0}, {4, 3}, {8, 3}, {8, 10}});
  auto pieces = line.SplitAt({2.0, 7.5, 11.0});
  double total = 0;
  for (const auto& p : pieces) total += p.Length();
  EXPECT_NEAR(total, line.Length(), 1e-9);
  EXPECT_EQ(pieces.size(), 4u);
}

TEST(PolylineTest, SplitIgnoresOutOfRangeOffsets) {
  Polyline line({{0, 0}, {10, 0}});
  auto pieces = line.SplitAt({-1.0, 0.0, 10.0, 42.0});
  EXPECT_EQ(pieces.size(), 1u);
  EXPECT_DOUBLE_EQ(pieces[0].Length(), 10.0);
}

TEST(PolylineTest, BoundingBoxCoversAllVertices) {
  Polyline line({{0, 0}, {5, -2}, {3, 7}});
  const Mbr& box = line.BoundingBox();
  EXPECT_DOUBLE_EQ(box.min_y(), -2.0);
  EXPECT_DOUBLE_EQ(box.max_y(), 7.0);
  EXPECT_DOUBLE_EQ(box.max_x(), 5.0);
}

TEST(PointSegmentDistanceTest, PerpendicularAndClamped) {
  XyPoint a{0, 0}, b{10, 0};
  XyPoint closest;
  double t;
  EXPECT_DOUBLE_EQ(PointSegmentDistance({5, 2}, a, b, &closest, &t), 2.0);
  EXPECT_DOUBLE_EQ(t, 0.5);
  EXPECT_DOUBLE_EQ(PointSegmentDistance({-3, 4}, a, b, &closest, &t), 5.0);
  EXPECT_DOUBLE_EQ(t, 0.0);
}

TEST(PointSegmentDistanceTest, DegenerateSegment) {
  XyPoint a{1, 1};
  EXPECT_DOUBLE_EQ(PointSegmentDistance({4, 5}, a, a, nullptr, nullptr), 5.0);
}

// --- GeoJSON -----------------------------------------------------------------

TEST(GeoJsonTest, EmptyCollection) {
  GeoJsonWriter w;
  EXPECT_EQ(w.ToString(), "{\"type\":\"FeatureCollection\",\"features\":[]}");
}

TEST(GeoJsonTest, PointFeature) {
  GeoJsonWriter w;
  w.AddPoint({22.5, 114.1}, {{"name", GeoJsonWriter::Quoted("start")}});
  std::string json = w.ToString();
  EXPECT_NE(json.find("\"type\":\"Point\""), std::string::npos);
  EXPECT_NE(json.find("[114.100000,22.500000]"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"start\""), std::string::npos);
}

TEST(GeoJsonTest, LineStringCoordinateOrderIsLonLat) {
  GeoJsonWriter w;
  w.AddLineString({{1.0, 2.0}, {3.0, 4.0}});
  std::string json = w.ToString();
  // lat=1, lon=2 must serialize as [2, 1].
  EXPECT_NE(json.find("[2.000000,1.000000]"), std::string::npos);
  EXPECT_NE(json.find("[4.000000,3.000000]"), std::string::npos);
}

TEST(GeoJsonTest, QuotedEscapesSpecials) {
  EXPECT_EQ(GeoJsonWriter::Quoted("a\"b\\c"), "\"a\\\"b\\\\c\"");
}

TEST(GeoJsonTest, WriteFileRoundTrip) {
  GeoJsonWriter w;
  w.AddPoint({22.5, 114.1});
  std::string path = ::testing::TempDir() + "strr_geojson_test.json";
  ASSERT_TRUE(w.WriteFile(path).ok());
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, w.ToString());
  std::filesystem::remove(path);
}

TEST(GeoJsonTest, WriteFileBadPathFails) {
  GeoJsonWriter w;
  EXPECT_TRUE(w.WriteFile("/nonexistent_dir_xyz/f.json").IsIoError());
}

TEST(GeoJsonTest, NumFeaturesCounts) {
  GeoJsonWriter w;
  EXPECT_EQ(w.NumFeatures(), 0u);
  w.AddPoint({0, 0});
  w.AddLineString({{0, 0}, {1, 1}});
  EXPECT_EQ(w.NumFeatures(), 2u);
}

}  // namespace
}  // namespace strr
