// Full training pipeline on the multi-source aggregated dataset: generate
// data, persist it to an ADIOS-style bp container, reload, train with a
// per-epoch learning-rate decay, report test metrics per source, and save
// the run summary. This is the single-process version of the paper's
// training loop (see distributed_training.cpp for the multi-rank one).
//
//   ./build/examples/train_potential [dataset_MiB] [epochs] [width]

#include <cstdlib>
#include <iostream>

#include "sgnn/nn/model_io.hpp"
#include "sgnn/sgnn.hpp"

int main(int argc, char** argv) {
  using namespace sgnn;

  const std::uint64_t dataset_mib =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 3;
  const std::int64_t epochs = argc > 2 ? std::atoll(argv[2]) : 10;
  const std::int64_t width = argc > 3 ? std::atoll(argv[3]) : 48;

  // --- Data: generate, persist, reload (exercising the storage layer) ----
  const ReferencePotential potential;
  DatasetOptions data_options;
  data_options.target_bytes = dataset_mib << 20;
  data_options.seed = 2025;
  std::cout << "generating ~" << dataset_mib << " MiB aggregated dataset...\n";
  const AggregatedDataset dataset =
      AggregatedDataset::generate(data_options, potential);

  const std::string path = "train_potential_dataset.bp";
  {
    BpWriter writer(path);
    for (const auto& g : dataset.graphs()) writer.append(g);
    writer.finalize();
    std::cout << "persisted " << writer.record_count() << " graphs ("
              << Table::human_bytes(static_cast<double>(writer.payload_bytes()))
              << ") to " << path << "\n";
  }
  const BpReader reader(path);
  std::vector<MolecularGraph> graphs;
  graphs.reserve(reader.size());
  for (std::size_t i = 0; i < reader.size(); ++i) {
    graphs.push_back(reader.read(i));
  }

  std::vector<const MolecularGraph*> all;
  for (const auto& g : graphs) all.push_back(&g);

  // --- Split, baseline, model -------------------------------------------
  const auto split = dataset.split(0.2, 99);
  std::vector<const MolecularGraph*> train;
  std::vector<const MolecularGraph*> test;
  for (const auto i : split.train) train.push_back(&graphs[i]);
  for (const auto i : split.test) test.push_back(&graphs[i]);
  std::cout << "split: " << train.size() << " train / " << test.size()
            << " test graphs\n";

  ModelConfig config;
  config.hidden_dim = width;
  config.num_layers = 3;
  EGNNModel model(config);
  std::cout << "model: " << model.num_parameters() << " parameters\n\n";

  TrainOptions options;
  options.epochs = epochs;
  options.batch_size = 8;
  options.adam.learning_rate = 2e-3;
  options.lr_decay = 0.9;
  Trainer trainer(model, options);
  trainer.set_energy_baseline(EnergyBaseline::fit(train));

  // --- Train with per-epoch reporting ------------------------------------
  DataLoader loader(train, options.batch_size, /*seed=*/7);
  Table progress({"Epoch", "Train loss", "Test loss", "Energy MAE/atom",
                  "Force MAE", "Seconds"});
  for (std::int64_t epoch = 0; epoch < options.epochs; ++epoch) {
    const auto result = trainer.train_epoch(loader);
    const EvalMetrics metrics = trainer.evaluate(test, 16);
    progress.add_row({std::to_string(epoch + 1),
                      Table::fixed(result.mean_train_loss, 4),
                      Table::fixed(metrics.loss, 4),
                      Table::fixed(metrics.energy_mae_per_atom, 4),
                      Table::fixed(metrics.force_mae, 4),
                      Table::fixed(result.seconds, 1)});
  }
  std::cout << progress.to_ascii("Training progress");

  // --- Per-source test breakdown -----------------------------------------
  Table by_source({"Source", "Test graphs", "Loss", "Energy MAE/atom",
                   "Force MAE"});
  for (const auto source : all_sources()) {
    std::vector<const MolecularGraph*> subset;
    for (const auto i : split.test) {
      if (dataset.source_of(i) == source) subset.push_back(&graphs[i]);
    }
    if (subset.empty()) continue;
    const EvalMetrics m = trainer.evaluate(subset, 16);
    by_source.add_row({source_spec(source).name,
                       std::to_string(subset.size()),
                       Table::fixed(m.loss, 4),
                       Table::fixed(m.energy_mae_per_atom, 4),
                       Table::fixed(m.force_mae, 4)});
  }
  std::cout << "\n" << by_source.to_ascii("Test metrics per data source");

  // --- Checkpoint the trained model and verify the round trip -------------
  const std::string model_path = "train_potential_model.sgck";
  save_model(model, model_path);
  const auto restored = load_model(model_path);
  const EvalMetrics original_metrics = trainer.evaluate(test, 16);
  Trainer restored_trainer(*restored, options);
  restored_trainer.set_energy_baseline(EnergyBaseline::fit(train));
  const EvalMetrics restored_metrics = restored_trainer.evaluate(test, 16);
  std::cout << "\nsaved model to " << model_path << "; reloaded test loss "
            << restored_metrics.loss << " (original "
            << original_metrics.loss << ")\n";

  std::remove(model_path.c_str());
  std::remove(path.c_str());
  // The round trip is exact: the reloaded model must reproduce the test
  // loss bit for bit.
  if (restored_metrics.loss != original_metrics.loss) {
    std::cerr << "MISMATCH: reloaded test loss differs from the original\n";
    return 1;
  }
  return 0;
}
