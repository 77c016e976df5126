// Figure 8 + Table 12: YAGO3-10 relation-category break-downs.

#include "bench/bench_common.h"
#include "util/string_util.h"
#include "util/table.h"

namespace kgc::bench {
namespace {

int Run() {
  PrintHeader("Figure 8 / Table 12: YAGO3-10 category break-downs",
              "Akrami et al., SIGMOD'20, Figure 8 and Table 12");
  ExperimentContext context = MakeContext();
  const Dataset& dataset = context.Yago3().kg.dataset;

  std::vector<LabeledRanks> models;
  for (ModelType type : FigureModelLineup()) {
    models.push_back({ModelTypeName(type), &context.GetRanks(dataset, type)});
  }
  models.push_back({"AMIE", &AmieRanks(context, dataset)});

  const auto categories = CategorizeRelations(dataset.train_store());

  // Figure 8a: best-FMRR counts per category.
  const auto counts = CountBestRelationsByCategory(models, categories);
  AsciiTable fig8(
      "Figure 8a: #relations with the best FMRR, by model and category");
  fig8.SetHeader(CategoryHeader());
  for (size_t m = 0; m < models.size(); ++m) {
    fig8.AddRow({models[m].model, StrFormat("%d", counts[m][0]),
                 StrFormat("%d", counts[m][1]), StrFormat("%d", counts[m][2]),
                 StrFormat("%d", counts[m][3])});
  }
  fig8.Print();

  // Table 12: left/right FHits@10 per category.
  AsciiTable table12("Table 12: YAGO3-10-syn FHits@10 (%) by category, "
                     "head (L) / tail (R)");
  table12.SetHeader({"Model", "1-1 L", "1-1 R", "1-n L", "1-n R", "n-1 L",
                     "n-1 R", "n-m L", "n-m R"});
  for (const LabeledRanks& model : models) {
    const CategoryHeadTailHits hits =
        ComputeCategoryHeadTailHits(*model.ranks, categories);
    std::vector<std::string> row = {model.model};
    for (size_t c = 0; c < 4; ++c) {
      row.push_back(Pct(hits.left_fhits10[c]));
      row.push_back(Pct(hits.right_fhits10[c]));
    }
    table12.AddRow(std::move(row));
  }
  table12.Print();
  return 0;
}

}  // namespace
}  // namespace kgc::bench

int main(int argc, char** argv) {
  return kgc::bench::RunBench(argc, argv, "bench_fig8_table12_yago_categories", kgc::bench::Run);
}
