// Tables 9 and 10: FHits@10 for head ("left") and tail ("right") prediction
// separately per relation category, on FB15k-237 and WN18RR.

#include "bench/bench_common.h"
#include "util/string_util.h"
#include "util/table.h"

namespace kgc::bench {
namespace {

void RunDataset(ExperimentContext& context, const Dataset& dataset,
                const char* title) {
  const auto categories = CategorizeRelations(dataset.train_store());

  AsciiTable table(title);
  table.SetHeader({"Model", "1-1 L", "1-1 R", "1-n L", "1-n R", "n-1 L",
                   "n-1 R", "n-m L", "n-m R"});
  auto add = [&](const std::string& name,
                 const std::vector<TripleRanks>& ranks) {
    const CategoryHeadTailHits hits =
        ComputeCategoryHeadTailHits(ranks, categories);
    std::vector<std::string> row = {name};
    for (size_t c = 0; c < 4; ++c) {
      row.push_back(Pct(hits.left_fhits10[c]));
      row.push_back(Pct(hits.right_fhits10[c]));
    }
    table.AddRow(std::move(row));
  };
  for (ModelType type : PaperModelLineup()) {
    add(ModelTypeName(type), context.GetRanks(dataset, type));
  }
  add("AMIE", AmieRanks(context, dataset));
  table.Print();

  // Category sizes, as reported in the paper's §5.3(5).
  CategoryHeadTailHits sizes = ComputeCategoryHeadTailHits(
      context.GetRanks(dataset, ModelType::kTransE), categories);
  std::printf("category sizes (relations / test triples): ");
  for (size_t c = 0; c < 4; ++c) {
    std::printf("%s: %zu/%zu  ",
                RelationCategoryName(static_cast<RelationCategory>(c)),
                sizes.num_relations[c], sizes.num_triples[c]);
  }
  std::printf("\n");
}

int Run() {
  PrintHeader("Tables 9/10: FHits@10 by relation category, head (L) and "
              "tail (R) prediction",
              "Akrami et al., SIGMOD'20, Tables 9 and 10");
  ExperimentContext context = MakeContext();
  RunDataset(context, context.Fb15k().cleaned,
             "Table 9: FB15k-237-syn, FHits@10 (%) by category");
  RunDataset(context, context.Wn18().cleaned,
             "Table 10: WN18RR-syn, FHits@10 (%) by category");
  return 0;
}

}  // namespace
}  // namespace kgc::bench

int main(int argc, char** argv) {
  return kgc::bench::RunBench(argc, argv, "bench_table9_table10_category_hits", kgc::bench::Run);
}
