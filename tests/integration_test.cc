// End-to-end integration tests: generate -> audit -> clean -> train ->
// evaluate, and the paper's qualitative claims on a fast, small benchmark.

#include <gtest/gtest.h>

#include "core/audit.h"
#include "datagen/generator.h"
#include "eval/ranker.h"
#include "models/trainer.h"
#include "redundancy/cleaner.h"
#include "redundancy/detectors.h"
#include "rules/cartesian_predictor.h"
#include "rules/simple_rule_model.h"
#include "util/string_util.h"

namespace kgc {
namespace {

// A small, heavily leaky benchmark: most triples belong to reverse pairs
// with near-total dataset coverage, mirroring WN18's structure.
SyntheticKg LeakyKg() {
  GeneratorSpec spec;
  spec.name = "leaky";
  spec.num_domains = 4;
  spec.domain_size = 50;
  spec.cluster_size = 5;
  spec.valid_fraction = 0.1;
  spec.test_fraction = 0.15;
  for (int i = 0; i < 4; ++i) {
    RelationFamilySpec family;
    family.archetype = RelationArchetype::kReverseBase;
    family.name = StrFormat("rev%d", i);
    family.genuine.subject_domain = i % 4;
    family.genuine.object_domain = (i + 1) % 4;
    family.genuine.mean_out_degree = 3.0;
    family.genuine.subject_participation = 0.9;
    family.genuine.noise = 0.3;
    family.dataset_keep_rate = 0.97;
    spec.families.push_back(family);
  }
  {
    RelationFamilySpec family;
    family.archetype = RelationArchetype::kGenuine;
    family.name = "gen";
    family.genuine.subject_domain = 0;
    family.genuine.object_domain = 2;
    family.genuine.mean_out_degree = 3.0;
    family.genuine.noise = 0.3;
    spec.families.push_back(family);
  }
  return GenerateKg(spec, 123);
}

TEST(IntegrationTest, PipelineReproducesHeadlineResult) {
  const SyntheticKg kg = LeakyKg();

  // 1. Audit finds the planted leakage.
  const AuditReport audit = RunAudit(kg.dataset);
  EXPECT_EQ(audit.catalog.reverse_pairs.size(), 4u);
  EXPECT_GT(audit.leakage.test_reverse_fraction, 0.5);

  // 2. Cleaning removes it.
  const Dataset cleaned =
      MakeWn18rrLike(kg.dataset, audit.catalog, "leaky-rr");
  const AuditReport cleaned_audit = RunAudit(cleaned);
  EXPECT_LT(cleaned_audit.leakage.test_reverse_fraction, 0.05);

  // 3. A capable model exploits the leak on the original dataset...
  ModelHyperParams params = DefaultHyperParams(ModelType::kComplEx);
  params.dim = 24;
  auto model = CreateModel(ModelType::kComplEx, kg.dataset.num_entities(),
                           kg.dataset.num_relations(), params);
  TrainOptions options = DefaultTrainOptions(ModelType::kComplEx);
  options.epochs = 30;
  TrainModel(*model, kg.dataset, options);
  const LinkPredictionMetrics leaky = EvaluatePredictor(*model, kg.dataset);

  // ...and degrades sharply once the reverses are gone (paper R1).
  auto clean_model = CreateModel(ModelType::kComplEx, cleaned.num_entities(),
                                 cleaned.num_relations(), params);
  TrainModel(*clean_model, cleaned, options);
  const LinkPredictionMetrics clean =
      EvaluatePredictor(*clean_model, cleaned);

  EXPECT_GT(leaky.fmrr, 0.3);
  EXPECT_GT(leaky.fmrr, clean.fmrr * 1.5);
}

TEST(IntegrationTest, SimpleRuleModelMatchesEmbeddingsOnLeakyData) {
  // Paper §4.2.1 / Table 13: the trivial reverse-rule model is competitive
  // with (here: beats) trained embedding models on leak-dominated data.
  const SyntheticKg kg = LeakyKg();
  const TripleStore& all = kg.dataset.all_store();
  const SimpleRuleModel simple(all, RedundancyCatalog::Detect(all));
  const LinkPredictionMetrics simple_metrics =
      EvaluatePredictor(simple, kg.dataset);
  EXPECT_GT(simple_metrics.fhits1, 0.5);

  ModelHyperParams params = DefaultHyperParams(ModelType::kTransE);
  params.dim = 24;
  auto transe = CreateModel(ModelType::kTransE, kg.dataset.num_entities(),
                            kg.dataset.num_relations(), params);
  TrainOptions options = DefaultTrainOptions(ModelType::kTransE);
  options.epochs = 30;
  TrainModel(*transe, kg.dataset, options);
  const LinkPredictionMetrics transe_metrics =
      EvaluatePredictor(*transe, kg.dataset);
  EXPECT_GT(simple_metrics.fhits1, transe_metrics.fhits1);
}

TEST(IntegrationTest, WorldGraphFiltersImproveCartesianScores) {
  // Paper §4.3(4) / Table 3: judging against the broader ground truth
  // (world graph) raises the filtered metrics of a Cartesian-property
  // predictor because its "wrong" predictions are actually true.
  GeneratorSpec spec;
  spec.name = "cart";
  spec.num_domains = 2;
  spec.domain_size = 60;
  spec.cluster_size = 6;
  spec.valid_fraction = 0.1;
  spec.test_fraction = 0.3;
  RelationFamilySpec family;
  family.archetype = RelationArchetype::kCartesian;
  family.name = "cart0";
  family.genuine.subject_domain = 0;
  family.genuine.object_domain = 1;
  family.cartesian_subjects = 20;
  family.cartesian_objects = 12;
  family.dataset_keep_rate = 0.88;
  spec.families.push_back(family);
  const SyntheticKg kg = GenerateKg(spec, 321);

  // Detect on the full dataset (the paper's T_r is over G); predictions
  // still read adjacency from the training split only.
  std::vector<RelationId> cartesian_relations;
  for (const CartesianEvidence& e :
       FindCartesianRelations(kg.dataset.all_store())) {
    cartesian_relations.push_back(e.relation);
  }
  const CartesianPredictor predictor(kg.dataset.train_store(),
                                     cartesian_relations);
  ASSERT_TRUE(predictor.IsCartesian(0));

  const LinkPredictionMetrics dataset_truth =
      EvaluatePredictor(predictor, kg.dataset);
  RankerOptions world_options;
  world_options.filter = &kg.world_store();
  const LinkPredictionMetrics world_truth =
      EvaluatePredictor(predictor, kg.dataset, world_options);
  EXPECT_GE(world_truth.fmrr, dataset_truth.fmrr);
  EXPECT_GT(world_truth.fhits1, dataset_truth.fhits1);
}

}  // namespace
}  // namespace kgc
