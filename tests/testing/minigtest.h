// minigtest — a vendored, single-header, GoogleTest-compatible test shim.
//
// The build environment is offline, so instead of fetching GoogleTest the
// test suite compiles against this header by default (the `gtest` interface
// target in CMakeLists.txt maps `<gtest/gtest.h>` here). Configure with
// -DBLOCKDAG_SYSTEM_GTEST=ON to swap in a real system GoogleTest instead;
// the suite uses only the subset implemented below, so both must behave
// identically for every test in tests/.
//
// Implemented subset:
//   TEST, TEST_F, TEST_P / ::testing::TestWithParam<T> / GetParam()
//   INSTANTIATE_TEST_SUITE_P with ::testing::Range / ::testing::Values and
//     an optional name-generator taking ::testing::TestParamInfo<T>
//   EXPECT_/ASSERT_ {TRUE, FALSE, EQ, NE, LT, LE, GT, GE, STREQ, DOUBLE_EQ,
//     THROW}, SUCCEED(), FAIL(), ADD_FAILURE(), all streamable with <<
//   ::testing::Test fixture base with virtual SetUp()/TearDown()
//   Test registry, gtest-style console reporter, RUN_ALL_TESTS(),
//   --gtest_filter=GLOB[:GLOB...][-GLOB...] and --gtest_list_tests
//
// Deliberately absent (unused by this suite): death tests, matchers/gmock,
// typed tests, sharding, XML output, threadsafe assertions.
#pragma once

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace testing {

// ---------------------------------------------------------------------------
// Value printing: stream when the type supports it, otherwise recurse into
// containers/optionals/pairs, otherwise admit defeat. Mirrors the part of
// gtest's universal printer the suite relies on (vectors of ints/bytes).
// ---------------------------------------------------------------------------
namespace internal {

template <typename T, typename = void>
struct IsStreamable : std::false_type {};
template <typename T>
struct IsStreamable<T, std::void_t<decltype(std::declval<std::ostream&>()
                                            << std::declval<const T&>())>>
    : std::true_type {};

template <typename T, typename = void>
struct IsContainer : std::false_type {};
template <typename T>
struct IsContainer<T, std::void_t<decltype(std::begin(std::declval<const T&>())),
                                  decltype(std::end(std::declval<const T&>()))>>
    : std::true_type {};

template <typename T>
void PrintTo(const T& value, std::ostream& os);

inline void PrintTo(bool value, std::ostream& os) { os << (value ? "true" : "false"); }
inline void PrintTo(char value, std::ostream& os) { os << "'" << value << "'"; }
inline void PrintTo(signed char value, std::ostream& os) { os << static_cast<int>(value); }
inline void PrintTo(unsigned char value, std::ostream& os) { os << static_cast<unsigned>(value); }
inline void PrintTo(const std::string& value, std::ostream& os) { os << '"' << value << '"'; }
inline void PrintTo(const char* value, std::ostream& os) {
  if (value == nullptr) {
    os << "NULL";
  } else {
    os << '"' << value << '"';
  }
}

template <typename A, typename B>
void PrintTo(const std::pair<A, B>& value, std::ostream& os) {
  os << '(';
  PrintTo(value.first, os);
  os << ", ";
  PrintTo(value.second, os);
  os << ')';
}

template <typename T>
void PrintTo(const std::optional<T>& value, std::ostream& os) {
  if (value.has_value()) {
    os << "optional(";
    PrintTo(*value, os);
    os << ')';
  } else {
    os << "nullopt";
  }
}

template <typename T>
void PrintTo(const T& value, std::ostream& os) {
  if constexpr (std::is_enum_v<T>) {
    os << static_cast<std::underlying_type_t<T>>(value);
  } else if constexpr (IsStreamable<T>::value) {
    os << value;
  } else if constexpr (IsContainer<T>::value) {
    os << "{ ";
    std::size_t count = 0;
    for (const auto& element : value) {
      if (count > 0) os << ", ";
      if (++count > 32) {
        os << "...";
        break;
      }
      PrintTo(element, os);
    }
    os << " }";
  } else {
    os << "<" << sizeof(T) << "-byte object>";
  }
}

template <typename T>
std::string PrintToString(const T& value) {
  std::ostringstream os;
  PrintTo(value, os);
  return os.str();
}

}  // namespace internal

// ---------------------------------------------------------------------------
// Message / AssertionResult — the streaming glue behind EXPECT_* << "...".
// ---------------------------------------------------------------------------
class Message {
 public:
  Message() = default;
  Message(const Message& other) { ss_ << other.str(); }

  template <typename T>
  Message& operator<<(const T& value) {
    ss_ << value;
    return *this;
  }

  std::string str() const { return ss_.str(); }

 private:
  std::ostringstream ss_;
};

class AssertionResult {
 public:
  explicit AssertionResult(bool success) : success_(success) {}
  AssertionResult(const AssertionResult& other)
      : success_(other.success_), message_(other.message_) {}

  explicit operator bool() const { return success_; }

  template <typename T>
  AssertionResult& operator<<(const T& value) {
    std::ostringstream os;
    os << value;
    message_ += os.str();
    return *this;
  }

  const std::string& message() const { return message_; }

 private:
  bool success_;
  std::string message_;
};

inline AssertionResult AssertionSuccess() { return AssertionResult(true); }
inline AssertionResult AssertionFailure() { return AssertionResult(false); }

// ---------------------------------------------------------------------------
// Fixture base classes.
// ---------------------------------------------------------------------------
class Test {
 public:
  virtual ~Test() = default;
  virtual void SetUp() {}
  virtual void TearDown() {}
  virtual void TestBody() = 0;
};

template <typename T>
class TestWithParam : public Test {
 public:
  using ParamType = T;
  const ParamType& GetParam() const { return *param_; }
  void SetParam(const ParamType* param) { param_ = param; }

 private:
  const ParamType* param_ = nullptr;
};

template <typename T>
struct TestParamInfo {
  TestParamInfo(const T& a_param, std::size_t an_index)
      : param(a_param), index(an_index) {}
  T param;
  std::size_t index;
};

// Parameter generators. Real gtest returns lazy generator objects; the suite
// only ever passes these straight to INSTANTIATE_TEST_SUITE_P, so eager
// vectors are indistinguishable.
template <typename T, typename IncrementT = int>
std::vector<T> Range(T begin, T end, IncrementT step = 1) {
  std::vector<T> values;
  for (T v = begin; v < end; v = static_cast<T>(v + step)) values.push_back(v);
  return values;
}

template <typename T, typename... Rest>
std::vector<T> Values(T first, Rest... rest) {
  return std::vector<T>{first, static_cast<T>(rest)...};
}

// ---------------------------------------------------------------------------
// Registry + runner.
// ---------------------------------------------------------------------------
namespace internal {

struct TestInfo {
  std::string suite_name;   // includes "Prefix/" for instantiated suites
  std::string test_name;    // includes "/ParamName" for instantiated tests
  std::function<Test*()> factory;
};

struct Registry {
  std::vector<TestInfo> tests;
  // Deferred expansion of TEST_P x INSTANTIATE_TEST_SUITE_P cross products,
  // run once at RUN_ALL_TESTS() so macro order within a file is irrelevant.
  std::vector<std::function<void(Registry&)>> param_expanders;

  // Per-test outcome state, written by assertion macros via AssertHelper.
  // Atomic because, as in gtest, assertions may run on any thread the test
  // starts.
  std::atomic<bool> current_failed{false};
  std::atomic<bool> current_fatal{false};
  std::atomic<std::size_t> checks_executed{0};

  static Registry& Instance() {
    static Registry registry;
    return registry;
  }
};

inline int RegisterTest(const char* suite, const char* name,
                        std::function<Test*()> factory) {
  Registry::Instance().tests.push_back(TestInfo{suite, name, std::move(factory)});
  return 0;
}

// Registration state for one TestWithParam fixture class.
template <typename SuiteClass>
class ParamRegistry {
 public:
  using ParamType = typename SuiteClass::ParamType;
  using Namer = std::function<std::string(const TestParamInfo<ParamType>&)>;
  using Factory = Test* (*)(const ParamType*);

  static ParamRegistry& Instance() {
    static ParamRegistry registry;
    return registry;
  }

  int AddTest(const char* suite, const char* name, Factory factory) {
    suite_name_ = suite;
    tests_.push_back({name, factory});
    EnsureExpanderRegistered();
    return 0;
  }

  int AddInstantiation(const char* prefix, std::vector<ParamType> params) {
    return AddInstantiation(prefix, std::move(params), Namer());
  }

  int AddInstantiation(const char* prefix, std::vector<ParamType> params,
                       Namer namer) {
    instantiations_.push_back({prefix, std::move(params), std::move(namer)});
    EnsureExpanderRegistered();
    return 0;
  }

 private:
  struct ParamTest {
    std::string name;
    Factory factory;
  };
  struct Instantiation {
    std::string prefix;
    std::vector<ParamType> params;
    Namer namer;
  };

  void EnsureExpanderRegistered() {
    if (expander_registered_) return;
    expander_registered_ = true;
    Registry::Instance().param_expanders.push_back(
        [](Registry& registry) { Instance().Expand(registry); });
  }

  void Expand(Registry& registry) {
    for (const Instantiation& inst : instantiations_) {
      for (std::size_t i = 0; i < inst.params.size(); ++i) {
        // Parameters live in this singleton for the whole run; handing tests
        // a stable pointer matches gtest's GetParam() lifetime contract.
        const ParamType* param = &inst.params[i];
        std::string param_name = inst.namer
            ? inst.namer(TestParamInfo<ParamType>(*param, i))
            : std::to_string(i);
        for (const ParamTest& test : tests_) {
          registry.tests.push_back(TestInfo{
              inst.prefix + "/" + suite_name_,
              test.name + "/" + param_name,
              [factory = test.factory, param]() { return factory(param); }});
        }
      }
    }
  }

  std::string suite_name_;
  std::vector<ParamTest> tests_;
  std::deque<Instantiation> instantiations_;  // stable addresses for params
  bool expander_registered_ = false;
};

// Reports one assertion failure; created by the macros below, message text is
// streamed in via `= Message() << ...` exactly like gtest's AssertHelper.
class AssertHelper {
 public:
  AssertHelper(bool fatal, const char* file, int line, std::string summary)
      : fatal_(fatal), file_(file), line_(line), summary_(std::move(summary)) {}

  void operator=(const Message& message) const {
    Registry& registry = Registry::Instance();
    registry.current_failed = true;
    if (fatal_) registry.current_fatal = true;
    std::fprintf(stderr, "%s:%d: Failure\n%s", file_, line_, summary_.c_str());
    const std::string extra = message.str();
    if (!extra.empty()) std::fprintf(stderr, "\n%s", extra.c_str());
    std::fprintf(stderr, "\n");
  }

 private:
  bool fatal_;
  const char* file_;
  int line_;
  std::string summary_;
};

// Swallows `SUCCEED() << "..."` style streams.
struct MessageSink {
  template <typename T>
  MessageSink& operator<<(const T&) { return *this; }
};

// Comparison helpers. The pragma keeps -Wsign-compare diagnostics (whose
// location is this template, not the call site) from firing for mixed-sign
// EXPECT_EQ uses, matching how tests written against gtest expect to build.
#if defined(__GNUC__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wsign-compare"
#endif
#define MINIGTEST_DEFINE_CMP_(helper_name, op, negated_op_text)               \
  template <typename A, typename B>                                           \
  AssertionResult helper_name(const char* lhs_text, const char* rhs_text,     \
                              const A& lhs, const B& rhs) {                   \
    if (lhs op rhs) return AssertionSuccess();                                \
    return AssertionFailure()                                                 \
           << "Expected: (" << lhs_text << ") " #op " (" << rhs_text          \
           << "), actual: " << PrintToString(lhs) << " " negated_op_text " "  \
           << PrintToString(rhs);                                             \
  }

MINIGTEST_DEFINE_CMP_(CmpHelperNE, !=, "vs")
MINIGTEST_DEFINE_CMP_(CmpHelperLT, <, "vs")
MINIGTEST_DEFINE_CMP_(CmpHelperLE, <=, "vs")
MINIGTEST_DEFINE_CMP_(CmpHelperGT, >, "vs")
MINIGTEST_DEFINE_CMP_(CmpHelperGE, >=, "vs")
#undef MINIGTEST_DEFINE_CMP_

template <typename A, typename B>
AssertionResult CmpHelperEQ(const char* lhs_text, const char* rhs_text,
                            const A& lhs, const B& rhs) {
  if (lhs == rhs) return AssertionSuccess();
  return AssertionFailure() << "Expected equality of these values:\n  "
                            << lhs_text << "\n    Which is: " << PrintToString(lhs)
                            << "\n  " << rhs_text
                            << "\n    Which is: " << PrintToString(rhs);
}
#if defined(__GNUC__)
#pragma GCC diagnostic pop
#endif

inline AssertionResult CmpHelperSTREQ(const char* lhs_text, const char* rhs_text,
                                      const char* lhs, const char* rhs) {
  const bool equal = (lhs == nullptr || rhs == nullptr)
                         ? lhs == rhs
                         : std::strcmp(lhs, rhs) == 0;
  if (equal) return AssertionSuccess();
  return AssertionFailure() << "Expected equality of these values:\n  "
                            << lhs_text << "\n    Which is: " << PrintToString(lhs)
                            << "\n  " << rhs_text
                            << "\n    Which is: " << PrintToString(rhs);
}

// gtest's AlmostEquals: equal within 4 units in the last place.
inline bool AlmostEqualDoubles(double lhs, double rhs) {
  if (std::isnan(lhs) || std::isnan(rhs)) return false;
  if (lhs == rhs) return true;
  const auto biased = [](double value) {
    std::uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    constexpr std::uint64_t kSignBit = 0x8000000000000000ULL;
    return (bits & kSignBit) ? ~bits + 1 : bits | kSignBit;
  };
  const std::uint64_t a = biased(lhs);
  const std::uint64_t b = biased(rhs);
  return (a > b ? a - b : b - a) <= 4;
}

inline AssertionResult CmpHelperDoubleEQ(const char* lhs_text,
                                         const char* rhs_text, double lhs,
                                         double rhs) {
  if (AlmostEqualDoubles(lhs, rhs)) return AssertionSuccess();
  std::ostringstream msg;
  msg.precision(17);
  msg << "Expected equality (within 4 ULPs) of these values:\n  " << lhs_text
      << "\n    Which is: " << lhs << "\n  " << rhs_text
      << "\n    Which is: " << rhs;
  return AssertionFailure() << msg.str();
}

// Simple glob with '*' and '?', the subset --gtest_filter needs.
inline bool GlobMatch(const char* pattern, const char* text) {
  while (*pattern != '\0') {
    if (*pattern == '*') {
      while (*pattern == '*') ++pattern;
      for (const char* t = text;; ++t) {
        if (GlobMatch(pattern, t)) return true;
        if (*t == '\0') return false;
      }
    }
    if (*text == '\0') return false;
    if (*pattern != '?' && *pattern != *text) return false;
    ++pattern;
    ++text;
  }
  return *text == '\0';
}

inline bool FilterMatches(const std::string& filter, const std::string& name) {
  if (filter.empty()) return true;
  const std::string::size_type dash = filter.find('-');
  const std::string positive = filter.substr(0, dash);
  const std::string negative =
      dash == std::string::npos ? std::string() : filter.substr(dash + 1);
  const auto any_match = [&name](const std::string& patterns, bool if_empty) {
    if (patterns.empty()) return if_empty;
    std::string::size_type start = 0;
    while (start <= patterns.size()) {
      std::string::size_type colon = patterns.find(':', start);
      if (colon == std::string::npos) colon = patterns.size();
      const std::string pattern = patterns.substr(start, colon - start);
      if (!pattern.empty() && GlobMatch(pattern.c_str(), name.c_str())) {
        return true;
      }
      start = colon + 1;
    }
    return false;
  };
  return any_match(positive, true) && !any_match(negative, false);
}

inline std::string& FilterFlag() {
  static std::string filter;
  return filter;
}

inline int RunAllTests() {
  Registry& registry = Registry::Instance();
  for (const auto& expand : registry.param_expanders) expand(registry);
  registry.param_expanders.clear();

  std::string filter;
  if (const char* env = std::getenv("GTEST_FILTER")) filter = env;
  // An argv-provided --gtest_filter (stashed by InitGoogleTest) wins.
  if (!FilterFlag().empty()) filter = FilterFlag();

  std::vector<const TestInfo*> selected;
  for (const TestInfo& test : registry.tests) {
    if (FilterMatches(filter, test.suite_name + "." + test.test_name)) {
      selected.push_back(&test);
    }
  }

  std::printf("[==========] Running %zu tests.\n", selected.size());
  std::vector<std::string> failed_names;
  for (const TestInfo* test : selected) {
    const std::string full_name = test->suite_name + "." + test->test_name;
    std::printf("[ RUN      ] %s\n", full_name.c_str());
    std::fflush(stdout);
    registry.current_failed = false;
    registry.current_fatal = false;
    try {
      std::unique_ptr<Test> instance(test->factory());
      instance->SetUp();
      // Mirror gtest: a fatal failure in SetUp() skips the test body.
      if (!registry.current_fatal) instance->TestBody();
      instance->TearDown();
    } catch (const std::exception& e) {
      registry.current_failed = true;
      std::fprintf(stderr, "unexpected exception: %s\n", e.what());
    } catch (...) {
      registry.current_failed = true;
      std::fprintf(stderr, "unexpected non-std exception\n");
    }
    if (registry.current_failed) {
      failed_names.push_back(full_name);
      std::printf("[  FAILED  ] %s\n", full_name.c_str());
    } else {
      std::printf("[       OK ] %s\n", full_name.c_str());
    }
    std::fflush(stdout);
  }

  std::printf("[==========] %zu tests ran.\n", selected.size());
  std::printf("[  PASSED  ] %zu tests.\n", selected.size() - failed_names.size());
  if (!failed_names.empty()) {
    std::printf("[  FAILED  ] %zu tests, listed below:\n", failed_names.size());
    for (const std::string& name : failed_names) {
      std::printf("[  FAILED  ] %s\n", name.c_str());
    }
  }
  std::fflush(stdout);
  return failed_names.empty() ? 0 : 1;
}

inline void ListTests() {
  Registry& registry = Registry::Instance();
  for (const auto& expand : registry.param_expanders) expand(registry);
  registry.param_expanders.clear();
  std::string last_suite;
  for (const TestInfo& test : registry.tests) {
    if (test.suite_name != last_suite) {
      std::printf("%s.\n", test.suite_name.c_str());
      last_suite = test.suite_name;
    }
    std::printf("  %s\n", test.test_name.c_str());
  }
}

}  // namespace internal

inline void InitGoogleTest(int* argc, char** argv) {
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string arg = argv[i];
    const std::string filter_prefix = "--gtest_filter=";
    if (arg.rfind(filter_prefix, 0) == 0) {
      internal::FilterFlag() = arg.substr(filter_prefix.size());
    } else if (arg == "--gtest_list_tests") {
      internal::ListTests();
      std::exit(0);
    } else if (arg.rfind("--gtest_", 0) == 0) {
      // Unsupported gtest flag: accept and ignore, like gtest does for
      // flags compiled out of a build.
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
}

}  // namespace testing

// ---------------------------------------------------------------------------
// Macros.
// ---------------------------------------------------------------------------
#define MINIGTEST_AMBIGUOUS_ELSE_BLOCKER_ \
  switch (0)                              \
  case 0:                                 \
  default:  // NOLINT

#define MINIGTEST_NONFATAL_(summary)                                         \
  ::testing::internal::AssertHelper(false, __FILE__, __LINE__, (summary)) = \
      ::testing::Message()
#define MINIGTEST_FATAL_(summary)                                           \
  return ::testing::internal::AssertHelper(true, __FILE__, __LINE__,        \
                                           (summary)) = ::testing::Message()

#define MINIGTEST_ASSERT_(expression, on_failure)                      \
  MINIGTEST_AMBIGUOUS_ELSE_BLOCKER_                                    \
  if (const ::testing::AssertionResult minigtest_ar = (expression))    \
    (void)++::testing::internal::Registry::Instance().checks_executed; \
  else                                                                 \
    on_failure(minigtest_ar.message())

#define MINIGTEST_BOOL_(condition, text, actual, expected, on_failure)     \
  MINIGTEST_AMBIGUOUS_ELSE_BLOCKER_                                        \
  if (condition)                                                           \
    (void)++::testing::internal::Registry::Instance().checks_executed;     \
  else                                                                     \
    on_failure("Value of: " text "\n  Actual: " actual                     \
               "\nExpected: " expected)

#define EXPECT_TRUE(condition) \
  MINIGTEST_BOOL_(condition, #condition, "false", "true", MINIGTEST_NONFATAL_)
#define ASSERT_TRUE(condition) \
  MINIGTEST_BOOL_(condition, #condition, "false", "true", MINIGTEST_FATAL_)
#define EXPECT_FALSE(condition)                                  \
  MINIGTEST_BOOL_(!(condition), "!(" #condition ")", "false", "true", \
                  MINIGTEST_NONFATAL_)
#define ASSERT_FALSE(condition)                                  \
  MINIGTEST_BOOL_(!(condition), "!(" #condition ")", "false", "true", \
                  MINIGTEST_FATAL_)

#define MINIGTEST_CMP_(helper, lhs, rhs, on_failure)                         \
  MINIGTEST_ASSERT_(                                                         \
      ::testing::internal::helper(#lhs, #rhs, lhs, rhs), on_failure)

#define EXPECT_EQ(lhs, rhs) MINIGTEST_CMP_(CmpHelperEQ, lhs, rhs, MINIGTEST_NONFATAL_)
#define ASSERT_EQ(lhs, rhs) MINIGTEST_CMP_(CmpHelperEQ, lhs, rhs, MINIGTEST_FATAL_)
#define EXPECT_NE(lhs, rhs) MINIGTEST_CMP_(CmpHelperNE, lhs, rhs, MINIGTEST_NONFATAL_)
#define ASSERT_NE(lhs, rhs) MINIGTEST_CMP_(CmpHelperNE, lhs, rhs, MINIGTEST_FATAL_)
#define EXPECT_LT(lhs, rhs) MINIGTEST_CMP_(CmpHelperLT, lhs, rhs, MINIGTEST_NONFATAL_)
#define ASSERT_LT(lhs, rhs) MINIGTEST_CMP_(CmpHelperLT, lhs, rhs, MINIGTEST_FATAL_)
#define EXPECT_LE(lhs, rhs) MINIGTEST_CMP_(CmpHelperLE, lhs, rhs, MINIGTEST_NONFATAL_)
#define ASSERT_LE(lhs, rhs) MINIGTEST_CMP_(CmpHelperLE, lhs, rhs, MINIGTEST_FATAL_)
#define EXPECT_GT(lhs, rhs) MINIGTEST_CMP_(CmpHelperGT, lhs, rhs, MINIGTEST_NONFATAL_)
#define ASSERT_GT(lhs, rhs) MINIGTEST_CMP_(CmpHelperGT, lhs, rhs, MINIGTEST_FATAL_)
#define EXPECT_GE(lhs, rhs) MINIGTEST_CMP_(CmpHelperGE, lhs, rhs, MINIGTEST_NONFATAL_)
#define ASSERT_GE(lhs, rhs) MINIGTEST_CMP_(CmpHelperGE, lhs, rhs, MINIGTEST_FATAL_)

#define EXPECT_STREQ(lhs, rhs) \
  MINIGTEST_CMP_(CmpHelperSTREQ, lhs, rhs, MINIGTEST_NONFATAL_)
#define ASSERT_STREQ(lhs, rhs) \
  MINIGTEST_CMP_(CmpHelperSTREQ, lhs, rhs, MINIGTEST_FATAL_)
#define EXPECT_DOUBLE_EQ(lhs, rhs) \
  MINIGTEST_CMP_(CmpHelperDoubleEQ, lhs, rhs, MINIGTEST_NONFATAL_)
#define ASSERT_DOUBLE_EQ(lhs, rhs) \
  MINIGTEST_CMP_(CmpHelperDoubleEQ, lhs, rhs, MINIGTEST_FATAL_)

#define MINIGTEST_THROW_(statement, expected_exception, on_failure)            \
  MINIGTEST_ASSERT_(                                                           \
      [&]() -> ::testing::AssertionResult {                                    \
        try {                                                                  \
          statement;                                                           \
        } catch (const expected_exception&) {                                  \
          return ::testing::AssertionSuccess();                                \
        } catch (...) {                                                        \
          return ::testing::AssertionFailure()                                 \
                 << "Expected: " #statement " throws " #expected_exception     \
                    ", actual: it throws a different type.";                   \
        }                                                                      \
        return ::testing::AssertionFailure()                                   \
               << "Expected: " #statement " throws " #expected_exception       \
                  ", actual: it throws nothing.";                              \
      }(),                                                                     \
      on_failure)

#define EXPECT_THROW(statement, expected_exception) \
  MINIGTEST_THROW_(statement, expected_exception, MINIGTEST_NONFATAL_)
#define ASSERT_THROW(statement, expected_exception) \
  MINIGTEST_THROW_(statement, expected_exception, MINIGTEST_FATAL_)

#define SUCCEED() ::testing::internal::MessageSink()
#define ADD_FAILURE() MINIGTEST_NONFATAL_("Failed")
#define FAIL() MINIGTEST_FATAL_("Failed")

#define MINIGTEST_CLASS_NAME_(suite, name) suite##_##name##_Test

#define MINIGTEST_TEST_(suite, name, parent)                                  \
  class MINIGTEST_CLASS_NAME_(suite, name) : public parent {                  \
   public:                                                                    \
    void TestBody() override;                                                 \
  };                                                                          \
  [[maybe_unused]] static const int minigtest_reg_##suite##_##name =          \
      ::testing::internal::RegisterTest(#suite, #name, []() -> ::testing::Test* { \
        return new MINIGTEST_CLASS_NAME_(suite, name)();                      \
      });                                                                     \
  void MINIGTEST_CLASS_NAME_(suite, name)::TestBody()

#define TEST(suite, name) MINIGTEST_TEST_(suite, name, ::testing::Test)
#define TEST_F(fixture, name) MINIGTEST_TEST_(fixture, name, fixture)

#define TEST_P(suite, name)                                                   \
  class MINIGTEST_CLASS_NAME_(suite, name) : public suite {                   \
   public:                                                                    \
    void TestBody() override;                                                 \
  };                                                                          \
  [[maybe_unused]] static const int minigtest_preg_##suite##_##name =         \
      ::testing::internal::ParamRegistry<suite>::Instance().AddTest(          \
          #suite, #name,                                                      \
          [](const suite::ParamType* param) -> ::testing::Test* {             \
            auto* test = new MINIGTEST_CLASS_NAME_(suite, name)();            \
            test->SetParam(param);                                            \
            return test;                                                      \
          });                                                                 \
  void MINIGTEST_CLASS_NAME_(suite, name)::TestBody()

#define INSTANTIATE_TEST_SUITE_P(prefix, suite, ...)                          \
  [[maybe_unused]] static const int minigtest_inst_##prefix##_##suite =       \
      ::testing::internal::ParamRegistry<suite>::Instance().AddInstantiation( \
          #prefix, __VA_ARGS__)

#define RUN_ALL_TESTS() ::testing::internal::RunAllTests()
