// PersistentMap must behave like the std::map subset B.PIs uses — size,
// lookups and ascending-key iteration, which digest_of() depends on
// byte-for-byte — and a copy must be a snapshot: writing to one map never
// shows through another that shares its nodes.
#include "util/persistent_map.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace blockdag {
namespace {

using Map = PersistentMap<std::uint64_t, int>;

std::vector<std::pair<std::uint64_t, int>> entries(const Map& m) {
  std::vector<std::pair<std::uint64_t, int>> out;
  for (const auto& [k, v] : m) out.emplace_back(k, v);
  return out;
}

std::vector<std::pair<std::uint64_t, int>> entries(const std::map<std::uint64_t, int>& m) {
  return {m.begin(), m.end()};
}

void expect_matches(const Map& m, const std::map<std::uint64_t, int>& model,
                    std::uint64_t key_range, const std::string& what) {
  ASSERT_EQ(m.size(), model.size()) << what;
  EXPECT_EQ(m.empty(), model.empty()) << what;
  EXPECT_EQ(entries(m), entries(model)) << what;
  for (std::uint64_t k = 0; k < key_range; ++k) {
    const auto it = model.find(k);
    const int* v = m.find(k);
    if (it == model.end()) {
      EXPECT_EQ(v, nullptr) << what << " key " << k;
    } else {
      ASSERT_NE(v, nullptr) << what << " key " << k;
      EXPECT_EQ(*v, it->second) << what << " key " << k;
    }
  }
}

TEST(PersistentMap, EmptyBehaviour) {
  const Map m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.find(1), nullptr);
  EXPECT_TRUE(m.begin() == m.end());
}

TEST(PersistentMap, InsertOrAssignKeepsKeysSortedAndUnique) {
  PersistentMap<std::uint64_t, std::string> m;
  m.insert_or_assign(5, "five");
  m.insert_or_assign(1, "one");
  m.insert_or_assign(3, "three");
  m.insert_or_assign(1, "ONE");  // overwrite
  EXPECT_EQ(m.size(), 3u);
  ASSERT_NE(m.find(1), nullptr);
  EXPECT_EQ(*m.find(1), "ONE");
  EXPECT_EQ(m.find(2), nullptr);
  std::vector<std::uint64_t> keys;
  for (const auto& [k, v] : m) keys.push_back(k);
  EXPECT_EQ(keys, (std::vector<std::uint64_t>{1, 3, 5}));
}

TEST(PersistentMap, RandomInsertsAndOverwritesMatchStdMap) {
  // Ascending, descending and random key orders drive every rotation case.
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    Rng rng(seed);
    constexpr std::uint64_t kRange = 600;
    Map m;
    std::map<std::uint64_t, int> model;
    for (int step = 0; step < 1500; ++step) {
      std::uint64_t key = rng.below(kRange);
      if (seed == 0) key = static_cast<std::uint64_t>(step) % kRange;
      if (seed == 1) key = kRange - 1 - static_cast<std::uint64_t>(step) % kRange;
      const int value = static_cast<int>(rng.below(1u << 20));
      m.insert_or_assign(key, value);
      model[key] = value;
      ASSERT_EQ(m.size(), model.size()) << "seed " << seed << " step " << step;
    }
    expect_matches(m, model, kRange, "seed " + std::to_string(seed));
  }
}

TEST(PersistentMap, WritingToACopyLeavesTheOriginalUnchanged) {
  Rng rng(7);
  constexpr std::uint64_t kRange = 300;
  Map original;
  std::map<std::uint64_t, int> original_model;
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t key = rng.below(kRange);
    original.insert_or_assign(key, i);
    original_model[key] = i;
  }

  // A chain of snapshots, each written to after it was copied from the
  // one before, like B.PIs down a parent chain.
  std::vector<Map> versions{original};
  std::vector<std::map<std::uint64_t, int>> models{original_model};
  for (int gen = 0; gen < 20; ++gen) {
    Map next = versions.back();
    auto next_model = models.back();
    for (int w = 0; w < 5; ++w) {
      const std::uint64_t key = rng.below(kRange + 50);  // new and old keys
      const int value = -(gen * 100 + w);
      next.insert_or_assign(key, value);
      next_model[key] = value;
    }
    versions.push_back(std::move(next));
    models.push_back(std::move(next_model));
  }
  for (std::size_t i = 0; i < versions.size(); ++i) {
    expect_matches(versions[i], models[i], kRange + 50,
                   "version " + std::to_string(i));
  }
  expect_matches(original, original_model, kRange + 50, "original");
}

TEST(PersistentMap, CopySharesValuesUntilOverwritten) {
  PersistentMap<std::uint64_t, std::shared_ptr<const int>> a;
  for (std::uint64_t k = 0; k < 64; ++k) {
    a.insert_or_assign(k, std::make_shared<const int>(static_cast<int>(k)));
  }
  PersistentMap<std::uint64_t, std::shared_ptr<const int>> b = a;
  b.insert_or_assign(10, std::make_shared<const int>(-10));
  for (std::uint64_t k = 0; k < 64; ++k) {
    ASSERT_NE(a.find(k), nullptr);
    ASSERT_NE(b.find(k), nullptr);
    EXPECT_EQ(**a.find(k), static_cast<int>(k));
    if (k == 10) {
      EXPECT_EQ(**b.find(k), -10);
    } else {
      EXPECT_EQ(*b.find(k), *a.find(k)) << "key " << k << " was not shared";
    }
  }
}

}  // namespace
}  // namespace blockdag
