// Tests for the training loop and negative sampling.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "datagen/presets.h"
#include "models/trainer.h"
#include "util/crc32.h"
#include "util/deadline.h"
#include "util/file_util.h"
#include "util/serialize.h"
#include "util/vecmath.h"

namespace kgc {
namespace {

// Golden CRC-32s of each model's serialized parameters (optimizer state
// included) after two epochs of its default training, recorded before the
// fused ConvE/TuckER training kernels replaced the scalar update loops. Any
// change to the arithmetic or the order of a training update moves one of
// these, on either kernel path.
TEST(TrainerTest, TrainedParametersMatchGoldenCrcs) {
  const SyntheticKg tiny = GenerateTiny(5);
  // A self-loop pins the update order when both sides share one entity row
  // (ConvE updates its output entity before its input entity).
  TripleList train = tiny.dataset.train();
  train.push_back(Triple{3, 0, 3});
  const Dataset dataset(tiny.dataset.name(), tiny.dataset.vocab(),
                        std::move(train), tiny.dataset.valid(),
                        tiny.dataset.test());

  struct Golden {
    ModelType type;
    bool adagrad;
    uint32_t crc;
  };
  const Golden kGolden[] = {
      {ModelType::kTransE, false, 0xba688e62},
      {ModelType::kTransH, false, 0x74ba74b3},
      {ModelType::kTransR, false, 0xb0d94f57},
      {ModelType::kTransD, false, 0x20c4fe20},
      {ModelType::kRescal, true, 0x0a285c8a},
      {ModelType::kDistMult, false, 0x58def5b2},
      {ModelType::kComplEx, false, 0xd9df158c},
      {ModelType::kRotatE, false, 0xd55bcaca},
      {ModelType::kTuckER, true, 0x11d15aea},
      {ModelType::kConvE, true, 0xff476762},
      {ModelType::kConvE, false, 0xe85d4cc1},
  };

  const bool was_native = std::strcmp(vec::Ops().name, "native") == 0;
  for (const vec::KernelPath path :
       {vec::KernelPath::kGeneric, vec::KernelPath::kNative}) {
    vec::SetKernelPathForTest(path);
    for (const Golden& golden : kGolden) {
      ModelHyperParams params = DefaultHyperParams(golden.type);
      params.dim = 8;
      params.adagrad = golden.adagrad;
      auto model = CreateModel(golden.type, dataset.num_entities(),
                               dataset.num_relations(), params);
      TrainOptions options = DefaultTrainOptions(golden.type);
      options.epochs = 2;
      options.seed = 9;
      TrainModel(*model, dataset, options);
      BinaryWriter writer;
      model->Serialize(writer);
      const uint32_t crc =
          Crc32(writer.buffer().data(), writer.buffer().size());
      EXPECT_EQ(crc, golden.crc)
          << ModelTypeName(golden.type) << " adagrad=" << golden.adagrad
          << " path=" << vec::Ops().name << " crc=0x" << std::hex << crc;
    }
  }
  vec::SetKernelPathForTest(was_native ? vec::KernelPath::kNative
                                       : vec::KernelPath::kGeneric);
}

TEST(TrainerTest, LossDecreasesOnLearnableData) {
  const SyntheticKg kg = GenerateTiny(5);
  ModelHyperParams params = DefaultHyperParams(ModelType::kTransE);
  params.dim = 16;
  auto model = CreateModel(ModelType::kTransE, kg.dataset.num_entities(),
                           kg.dataset.num_relations(), params);

  TrainOptions options;
  options.epochs = 1;
  options.seed = 1;
  const TrainStats first = TrainModel(*model, kg.dataset, options);
  options.epochs = 30;
  const TrainStats later = TrainModel(*model, kg.dataset, options);
  EXPECT_LT(later.final_loss, first.final_loss);
  EXPECT_EQ(later.epochs_run, 30);
}

TEST(TrainerTest, DeterministicGivenSeeds) {
  const SyntheticKg kg = GenerateTiny(5);
  ModelHyperParams params = DefaultHyperParams(ModelType::kDistMult);
  params.dim = 8;
  TrainOptions options;
  options.epochs = 3;
  options.seed = 9;

  auto a = CreateModel(ModelType::kDistMult, kg.dataset.num_entities(),
                       kg.dataset.num_relations(), params);
  auto b = CreateModel(ModelType::kDistMult, kg.dataset.num_entities(),
                       kg.dataset.num_relations(), params);
  TrainModel(*a, kg.dataset, options);
  TrainModel(*b, kg.dataset, options);
  for (EntityId h = 0; h < 10; ++h) {
    EXPECT_EQ(a->Score(h, 0, (h + 1) % 10), b->Score(h, 0, (h + 1) % 10));
  }
}

TEST(TrainerTest, DefaultOptionsAreSane) {
  for (ModelType type : PaperModelLineup()) {
    const TrainOptions options = DefaultTrainOptions(type);
    EXPECT_GT(options.epochs, 0) << ModelTypeName(type);
    EXPECT_GT(options.negatives, 0) << ModelTypeName(type);
  }
}

int g_trainer_deadline_hits = 0;
void CountTrainerDeadline(const char*) { ++g_trainer_deadline_hits; }

// A phase deadline mid-training exits resumably: the trainer saves a
// checkpoint *before* handing off to the deadline handler, and the resumed
// run converges bit-exactly to the uninterrupted result.
TEST(TrainerTest, DeadlineExitSavesResumableCheckpoint) {
  const SyntheticKg kg = GenerateTiny(5);
  ModelHyperParams params = DefaultHyperParams(ModelType::kTransE);
  params.dim = 8;
  TrainOptions options;
  options.epochs = 6;
  options.seed = 9;

  // Reference: uninterrupted, checkpoint-free run.
  auto uninterrupted = CreateModel(ModelType::kTransE,
                                   kg.dataset.num_entities(),
                                   kg.dataset.num_relations(), params);
  const TrainStats reference =
      TrainModel(*uninterrupted, kg.dataset, options);

  const std::string ckpt =
      (std::filesystem::temp_directory_path() / "kgc_trainer_deadline.ckpt")
          .string();
  std::remove(ckpt.c_str());
  options.checkpoint_path = ckpt;
  options.checkpoint_every = 1;

  // Interrupted run: the budget is exhausted from the first epoch
  // boundary on; the test handler observes the expiry instead of exiting.
  SetDeadlineHandlerForTest(CountTrainerDeadline);
  g_trainer_deadline_hits = 0;
  Deadline::Global().SetPhaseBudget(1e-6);
  TrainStats partial;
  {
    auto interrupted = CreateModel(ModelType::kTransE,
                                   kg.dataset.num_entities(),
                                   kg.dataset.num_relations(), params);
    partial = TrainModel(*interrupted, kg.dataset, options);
  }
  Deadline::Global().SetPhaseBudget(0);
  SetDeadlineHandlerForTest(nullptr);
  EXPECT_TRUE(partial.deadline_hit);
  EXPECT_EQ(g_trainer_deadline_hits, 1);
  EXPECT_EQ(partial.epochs_run, 1);   // stopped at the first boundary
  EXPECT_TRUE(FileExists(ckpt));      // resumable state persisted first

  // Resume without a deadline: bit-identical to the uninterrupted run.
  auto resumed = CreateModel(ModelType::kTransE, kg.dataset.num_entities(),
                             kg.dataset.num_relations(), params);
  const TrainStats stats = TrainModel(*resumed, kg.dataset, options);
  EXPECT_EQ(stats.resumed_from_epoch, partial.epochs_run);
  EXPECT_EQ(stats.epochs_run, reference.epochs_run);
  EXPECT_EQ(stats.final_loss, reference.final_loss);
  EXPECT_FALSE(FileExists(ckpt));  // consumed on success
  for (const Triple& t : kg.dataset.test()) {
    EXPECT_EQ(resumed->Score(t.head, t.relation, t.tail),
              uninterrupted->Score(t.head, t.relation, t.tail));
  }
}

}  // namespace
}  // namespace kgc
