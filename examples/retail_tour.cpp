// A guided tour of every smart-drill-down interaction on the paper's
// department-store example (Example 1): rule drill-down, star drill-down,
// roll-up, and the Sum aggregate over a measure column (§6.3).

#include <cstdio>

#include "core/drilldown.h"
#include "data/retail_gen.h"
#include "explore/engine.h"
#include "explore/renderer.h"
#include "explore/session.h"
#include "weights/standard_weights.h"

namespace {

void Banner(const char* text) {
  std::printf("\n######## %s ########\n", text);
}

}  // namespace

int main() {
  using namespace smartdd;

  Table table = GenerateRetailTable();
  SizeWeight weight;
  auto engine = ExplorationEngine::Create(table, weight);
  if (!engine.ok()) return 1;
  SessionOptions options;
  options.k = 3;
  options.max_weight = 5;
  auto session_or = (*engine)->NewSession(options);
  if (!session_or.ok()) return 1;
  ExplorationSession& session = *session_or;

  Banner("1. The analyst sees the trivial summary (paper Table 1)");
  std::printf("%s", RenderSession(session).c_str());

  Banner("2. Smart drill-down on the empty rule (paper Table 2)");
  auto level1 = session.Expand(session.root());
  if (!level1.ok()) return 1;
  std::printf("%s", RenderSession(session).c_str());

  Banner("3. Drill into the Walmart rule (paper Table 3)");
  int walmart = -1;
  for (int id : *level1) {
    if (session.node(id).rule.size() == 1) walmart = id;
  }
  if (walmart >= 0 && session.Expand(walmart).ok()) {
    std::printf("%s", RenderSession(session).c_str());
  }

  Banner("4. Star drill-down on Region within Walmart (paper 2.3)");
  if (walmart >= 0 && session.ExpandStar(walmart, 2).ok()) {
    std::printf("%s", RenderSession(session).c_str());
  }

  Banner("5. Roll up (collapse) the Walmart rule");
  if (walmart >= 0 && session.Collapse(walmart).ok()) {
    std::printf("%s", RenderSession(session).c_str());
  }

  Banner("6. Same drill-down ranked by Sum(Sales) instead of Count (par. 6.3)");
  TableView by_sales(table);
  by_sales.SelectMeasure(0);
  DrillDownRequest request;
  request.base = Rule::Trivial(3);
  request.k = 3;
  request.max_weight = 5;
  auto by_sales_resp = SmartDrillDown({&by_sales}, weight, request);
  if (by_sales_resp.ok()) {
    RenderOptions ropts;
    ropts.mass_label = "Sum(Sales)";
    std::printf("%s", RenderRuleList(table, by_sales_resp->rules, ropts).c_str());
    std::printf(
        "\nNote: the Sum aggregate can rank different rules than Count when\n"
        "high-priced products concentrate revenue.\n");
  }
  return 0;
}
