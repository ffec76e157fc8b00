// Crash-safe training end-to-end: trains the single-process Trainer with
// periodic SGCK snapshots, kills it mid-run with the built-in fault
// injector, then resumes from the last good checkpoint and verifies the
// final parameters are bit-identical to an uninterrupted run — the
// "train N == train k, crash, resume, train N-k" contract from
// docs/fault-tolerance.md.
//
//   ./build/examples/checkpoint_restart [ckpt_dir]

#include <filesystem>
#include <iostream>
#include <span>
#include <vector>

#include "sgnn/sgnn.hpp"

int main(int argc, char** argv) {
  using namespace sgnn;

  const std::string ckpt_dir =
      argc > 1 ? argv[1]
               : (std::filesystem::temp_directory_path() / "sgnn_ckpt_demo")
                     .string();
  std::filesystem::remove_all(ckpt_dir);

  DatasetOptions data_options;
  data_options.target_bytes = 1 << 20;
  data_options.seed = 7;
  const ReferencePotential potential;
  const AggregatedDataset dataset =
      AggregatedDataset::generate(data_options, potential);
  const auto split = dataset.split(0.2, 3);

  ModelConfig config;
  config.hidden_dim = 16;
  config.num_layers = 2;

  TrainOptions options;
  options.epochs = 2;
  options.batch_size = 8;
  options.max_grad_norm = 1.0;

  const auto run = [&](const TrainOptions& run_options) {
    EGNNModel model(config);
    Trainer trainer(model, run_options);
    DataLoader loader(dataset.view(split.train), run_options.batch_size, 19);
    trainer.fit(loader);
    const std::span<real> values = ParamArena(model.parameters()).values();
    return std::vector<real>(values.begin(), values.end());
  };

  // 1. The reference: an uninterrupted run.
  std::cout << "reference run (no crash)...\n";
  const std::vector<real> reference = run(options);

  // 2. The same run, checkpointing every 3 steps and crashing after 7.
  TrainOptions crashing = options;
  crashing.checkpoint.every_steps = 3;
  crashing.checkpoint.directory = ckpt_dir;
  crashing.checkpoint.crash_after_step = 7;
  std::cout << "crashing run (snapshot every 3 steps, crash after 7)...\n";
  try {
    run(crashing);
    std::cout << "run finished before the crash step (dataset too small)\n";
  } catch (const ckpt::SimulatedCrash& crash) {
    std::cout << "  crashed: " << crash.what() << "\n";
  }

  // 3. Resume from the newest good snapshot and finish the run.
  const auto latest = ckpt::CheckpointManager::load_latest(ckpt_dir);
  if (!latest) {
    std::cerr << "no checkpoint found under " << ckpt_dir << "\n";
    return 1;
  }
  std::cout << "resuming from " << latest->path << " (step " << latest->step
            << ")...\n";
  TrainOptions resuming = options;
  resuming.checkpoint.resume_from = ckpt_dir;
  const std::vector<real> resumed = run(resuming);

  const bool identical = resumed == reference;
  std::cout << (identical ? "resumed parameters are BIT-IDENTICAL to the "
                            "uninterrupted run\n"
                          : "MISMATCH: resumed parameters differ!\n");

  auto& registry = obs::MetricsRegistry::instance();
  std::cout << "ckpt.writes   = " << registry.counter("ckpt.writes").value()
            << "\nckpt.bytes    = " << registry.counter("ckpt.bytes").value()
            << "\nckpt.restores = "
            << registry.counter("ckpt.restores").value() << "\n";
  return identical ? 0 : 1;
}
