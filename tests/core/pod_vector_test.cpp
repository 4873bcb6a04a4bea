#include "fbdcsim/core/pod_vector.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace fbdcsim::core {
namespace {

/// A 40-byte element, so a few thousand of them cross several reallocs.
struct Row {
  std::int64_t id{0};
  std::int64_t payload[4]{};

  friend bool operator==(const Row&, const Row&) = default;
};

Row row(std::int64_t id) { return Row{id, {id, -id, 2 * id, id ^ 0x55}}; }

std::vector<Row> rows(std::int64_t n) {
  std::vector<Row> out;
  for (std::int64_t i = 0; i < n; ++i) out.push_back(row(i));
  return out;
}

void expect_contents(std::span<const Row> got, std::span<const Row> want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "at " << i;
  }
}

TEST(PodVectorTest, KeepsContentsAcrossSeveralReallocs) {
  PodVector<Row> v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.capacity(), 0u);
  constexpr std::int64_t kRows = 20'000;  // 1024 doubled four times, and more
  int reallocs = 0;
  std::size_t capacity = v.capacity();
  for (std::int64_t i = 0; i < kRows; ++i) {
    v.push_back(row(i));
    if (v.capacity() != capacity) {
      ++reallocs;
      EXPECT_GE(v.capacity(), 2 * capacity);
      capacity = v.capacity();
    }
  }
  EXPECT_GE(reallocs, 5);
  EXPECT_FALSE(v.empty());
  EXPECT_EQ(v.front(), row(0));
  EXPECT_EQ(v.back(), row(kRows - 1));
  EXPECT_EQ(v[123], row(123));
  EXPECT_EQ(v.end() - v.begin(), kRows);
  expect_contents(v, rows(kRows));
}

TEST(PodVectorTest, PushBackOfOwnElementWhileGrowing) {
  PodVector<Row> v;
  std::vector<Row> want;
  v.push_back(row(7));
  want.push_back(row(7));
  int grew = 0;
  while (v.size() < 20'000) {
    // At a full block, the element pushed lives in the block realloc moves
    // or frees.
    if (v.size() == v.capacity()) ++grew;
    const std::size_t i = v.size() / 2;
    v.push_back(v[i]);
    want.push_back(Row{want[i]});
  }
  EXPECT_GE(grew, 4);
  expect_contents(v, want);
}

TEST(PodVectorTest, AppendOfItsOwnViewWhileGrowing) {
  PodVector<Row> v;
  for (std::int64_t i = 0; i < 1000; ++i) v.push_back(row(i));
  ASSERT_GT(2 * v.size(), v.capacity());  // so appending itself must realloc
  v.append(v);
  v.append(std::span<const Row>{v}.subspan(10, 5));
  std::vector<Row> want = rows(1000);
  const std::vector<Row> first = want;
  want.insert(want.end(), first.begin(), first.end());
  want.insert(want.end(), first.begin() + 10, first.begin() + 15);
  expect_contents(v, want);
}

TEST(PodVectorTest, CopyMoveAndSelfAssignment) {
  PodVector<Row> a;
  for (std::int64_t i = 0; i < 3000; ++i) a.push_back(row(i));

  PodVector<Row> copy{a};
  expect_contents(copy, a);
  EXPECT_NE(copy.data(), a.data());
  copy[0] = row(-1);
  EXPECT_EQ(a[0], row(0));  // a deep copy

  PodVector<Row> assigned;
  assigned.push_back(row(99));
  assigned = a;
  expect_contents(assigned, a);

  const Row* block = a.data();
  PodVector<Row> moved{std::move(a)};
  EXPECT_EQ(moved.data(), block);  // moved, not copied
  EXPECT_EQ(moved.size(), 3000u);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move): moved-from is empty
  EXPECT_EQ(a.capacity(), 0u);

  PodVector<Row> move_assigned;
  move_assigned.push_back(row(5));
  move_assigned = std::move(moved);
  EXPECT_EQ(move_assigned.data(), block);
  EXPECT_TRUE(moved.empty());  // NOLINT(bugprone-use-after-move)
  moved.push_back(row(1));     // a moved-from vector is usable again
  EXPECT_EQ(moved.size(), 1u);

  PodVector<Row>& self = move_assigned;
  move_assigned = self;
  expect_contents(move_assigned, rows(3000));
  move_assigned = std::move(self);
  EXPECT_EQ(move_assigned.data(), block);
  expect_contents(move_assigned, rows(3000));
}

TEST(PodVectorTest, ClearKeepsCapacity) {
  PodVector<Row> v;
  for (std::int64_t i = 0; i < 5000; ++i) v.push_back(row(i));
  const std::size_t capacity = v.capacity();
  const Row* block = v.data();
  v.clear();
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.capacity(), capacity);
  for (std::int64_t i = 0; i < 5000; ++i) v.push_back(row(i + 1));
  EXPECT_EQ(v.data(), block);  // refilled without a realloc
  EXPECT_EQ(v.front(), row(1));
}

TEST(PodVectorTest, ConvertsImplicitlyToAConstSpan) {
  PodVector<Row> v;
  const auto sum_ids = [](std::span<const Row> s) {
    std::int64_t total = 0;
    for (const Row& r : s) total += r.id;
    return total;
  };
  EXPECT_EQ(sum_ids(v), 0);
  for (std::int64_t i = 1; i <= 100; ++i) v.push_back(row(i));
  const std::span<const Row> view = v;
  EXPECT_EQ(view.data(), v.data());
  EXPECT_EQ(view.size(), v.size());
  EXPECT_EQ(sum_ids(v), 5050);
}

}  // namespace
}  // namespace fbdcsim::core
