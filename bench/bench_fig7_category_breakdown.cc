// Figure 7: on FB15k-237, which model attains the best FMRR, broken down by
// relation category (1-to-1 / 1-to-n / n-to-1 / n-to-m).

#include "bench/bench_common.h"
#include "util/string_util.h"
#include "util/table.h"

namespace kgc::bench {
namespace {

int Run() {
  PrintHeader("Figure 7: best-FMRR model break-down by relation category "
              "(FB15k-237)",
              "Akrami et al., SIGMOD'20, Figure 7");
  ExperimentContext context = MakeContext();
  const Dataset& dataset = context.Fb15k().cleaned;

  std::vector<LabeledRanks> models;
  for (ModelType type : FigureModelLineup()) {
    models.push_back({ModelTypeName(type), &context.GetRanks(dataset, type)});
  }
  models.push_back({"AMIE", &AmieRanks(context, dataset)});

  const auto categories = CategorizeRelations(dataset.train_store());
  const auto counts = CountBestRelationsByCategory(models, categories);

  AsciiTable table(
      "Figure 7a: #relations with the best FMRR, by model and category");
  table.SetHeader(CategoryHeader());
  std::array<int, 4> totals = {};
  for (size_t m = 0; m < models.size(); ++m) {
    table.AddRow({models[m].model, StrFormat("%d", counts[m][0]),
                  StrFormat("%d", counts[m][1]), StrFormat("%d", counts[m][2]),
                  StrFormat("%d", counts[m][3])});
    for (size_t c = 0; c < 4; ++c) totals[c] += counts[m][c];
  }
  table.Print();

  AsciiTable breakdown(
      "Figure 7b: share of category wins per model (ties shared)");
  breakdown.SetHeader(CategoryHeader());
  for (size_t m = 0; m < models.size(); ++m) {
    std::vector<std::string> row = {models[m].model};
    for (size_t c = 0; c < 4; ++c) {
      row.push_back(totals[c] > 0
                        ? FormatPercent(static_cast<double>(counts[m][c]) /
                                        totals[c])
                        : "-");
    }
    breakdown.AddRow(std::move(row));
  }
  breakdown.Print();
  return 0;
}

}  // namespace
}  // namespace kgc::bench

int main(int argc, char** argv) {
  return kgc::bench::RunBench(argc, argv, "bench_fig7_category_breakdown", kgc::bench::Run);
}
