#ifndef SMARTDD_TESTS_TEST_UTIL_H_
#define SMARTDD_TESTS_TEST_UTIL_H_

#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "explore/engine.h"
#include "explore/session.h"
#include "rules/rule.h"
#include "rules/rule_format.h"
#include "storage/scan_source.h"
#include "storage/table.h"

namespace smartdd::testing {

/// Builds a table from string rows; column names c0, c1, ...
inline Table MakeTable(const std::vector<std::vector<std::string>>& rows,
                       std::vector<std::string> names = {}) {
  EXPECT_FALSE(rows.empty());
  if (names.empty()) {
    for (size_t c = 0; c < rows[0].size(); ++c) {
      names.push_back("c" + std::to_string(c));
    }
  }
  Table t(names);
  for (const auto& row : rows) {
    auto s = t.AppendRowValues(row);
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  return t;
}

/// Parses a rule from cells ("?" = star); dies on unknown values.
inline Rule R(const Table& table, const std::vector<std::string>& cells) {
  auto r = ParseRule(cells, table);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? std::move(r).value() : Rule(table.num_columns());
}

/// A single-session engine + its session, for tests exploring one dataset:
/// the engine member outlives the session member (declaration order), so
/// `auto owned = MakeSession(...); auto& session = owned.session;` is all a
/// test needs.
struct OwnedSession {
  std::unique_ptr<ExplorationEngine> engine;
  ExplorationSession session;
};

inline OwnedSession MakeSession(const Table& table,
                                const WeightFunction& weight,
                                SessionOptions options = {}) {
  EngineOptions engine_options;
  engine_options.num_threads = options.num_threads;
  auto engine = ExplorationEngine::Create(table, weight, engine_options);
  SMARTDD_CHECK(engine.ok()) << engine.status().ToString();
  auto session = (*engine)->NewSession(std::move(options));
  SMARTDD_CHECK(session.ok()) << session.status().ToString();
  return OwnedSession{std::move(engine).value(), std::move(session).value()};
}

inline OwnedSession MakeSession(const ScanSource& source,
                                const WeightFunction& weight,
                                SessionOptions options = {},
                                EngineOptions engine_options = {}) {
  if (engine_options.num_threads == 0) {
    engine_options.num_threads = options.num_threads;
  }
  auto engine = ExplorationEngine::Create(source, weight, engine_options);
  SMARTDD_CHECK(engine.ok()) << engine.status().ToString();
  auto session = (*engine)->NewSession(std::move(options));
  SMARTDD_CHECK(session.ok()) << session.status().ToString();
  return OwnedSession{std::move(engine).value(), std::move(session).value()};
}

/// Sets SMARTDD_KERNEL, the one scan-kernel selector, for its lifetime and
/// then restores the outer value or unsets it. The finder resolves the
/// variable once per Find and the sampler at construction, so searches and
/// samplers made inside the scope run the named path. setenv races with
/// any concurrent getenv: hold one only while no search or prefetch runs.
class ScopedKernel {
 public:
  explicit ScopedKernel(const char* kernel) {
    if (const char* outer = std::getenv("SMARTDD_KERNEL")) outer_ = outer;
    ::setenv("SMARTDD_KERNEL", kernel, 1);
  }
  ~ScopedKernel() {
    if (outer_) {
      ::setenv("SMARTDD_KERNEL", outer_->c_str(), 1);
    } else {
      ::unsetenv("SMARTDD_KERNEL");
    }
  }
  ScopedKernel(const ScopedKernel&) = delete;
  ScopedKernel& operator=(const ScopedKernel&) = delete;

 private:
  std::optional<std::string> outer_;
};

}  // namespace smartdd::testing

#endif  // SMARTDD_TESTS_TEST_UTIL_H_
