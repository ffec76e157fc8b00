// Extension: quantifying the foundation-model premise. The paper's framing
// (Sec. II-B / VI) is that a large multi-source model transfers: its
// representations should adapt to a target domain with little data, beating
// a from-scratch model with the same adaptation budget. This bench sweeps
// the TARGET dataset size and reports fine-tuned vs from-scratch test loss
// — the transfer gap should be largest in the low-data regime.

#include "bench_common.hpp"
#include "sgnn/nn/model_io.hpp"

int main() {
  using namespace sgnn;
  using namespace sgnn::bench;

  BenchReport report("ext_transfer");
  const ReferencePotential potential;

  // Pretraining corpus = the standard experiment aggregate.
  const Experiment experiment = make_experiment();
  const auto pretrain_view = experiment.dataset.view(experiment.split.train);
  const EnergyBaseline baseline = EnergyBaseline::fit(pretrain_view);

  ModelConfig config;
  config.hidden_dim = 40;
  config.num_layers = 3;

  const std::string checkpoint = "ext_transfer_foundation.sgck";
  {
    EGNNModel foundation(config);
    TrainOptions options = sweep_protocol().train;
    Trainer trainer(foundation, options);
    trainer.set_energy_baseline(baseline);
    DataLoader loader(pretrain_view, options.batch_size, 5);
    std::cerr << "[bench] pretraining foundation model on "
              << pretrain_view.size() << " graphs...\n";
    trainer.fit(loader);
    save_model(foundation, checkpoint);
  }

  // Target domain: held-out OC2022-style samples (fresh generator stream,
  // never seen in pretraining).
  Rng rng(0xBEEF);
  std::vector<MolecularGraph> target_pool;
  for (int i = 0; i < 48; ++i) {
    target_pool.push_back(
        generate_sample(DataSource::kOC2022, rng, potential));
  }
  std::vector<const MolecularGraph*> target_test;
  std::vector<const MolecularGraph*> target_train_pool;
  for (std::size_t i = 0; i < target_pool.size(); ++i) {
    (i < 12 ? target_test : target_train_pool).push_back(&target_pool[i]);
  }

  const auto adapt = [&](bool from_checkpoint, std::size_t train_count) {
    EGNNModel model(config);
    if (from_checkpoint) load_parameters_into(model, checkpoint);
    TrainOptions options;
    options.epochs = 6;
    options.batch_size = 4;
    options.adam.learning_rate = from_checkpoint ? 5e-4 : 2e-3;
    Trainer trainer(model, options);
    trainer.set_energy_baseline(baseline);
    const std::vector<const MolecularGraph*> train(
        target_train_pool.begin(),
        target_train_pool.begin() + static_cast<std::ptrdiff_t>(train_count));
    DataLoader loader(train, options.batch_size, 5);
    trainer.fit(loader);
    return trainer.evaluate(target_test, 8).loss;
  };

  Table table({"Target graphs", "Fine-tuned loss", "From-scratch loss",
               "Transfer advantage"});
  int wins = 0;
  const std::vector<std::size_t> budgets = {4, 9, 18, 36};
  for (const auto budget : budgets) {
    std::cerr << "[bench] target budget " << budget << " graphs...\n";
    const double finetuned = adapt(true, budget);
    const double scratch = adapt(false, budget);
    if (finetuned < scratch) ++wins;
    table.add_row({std::to_string(budget), Table::fixed(finetuned, 3),
                   Table::fixed(scratch, 3),
                   Table::fixed(scratch / finetuned, 2) + "x"});
  }
  std::cout << table.to_ascii(
      "Extension — transfer from the foundation checkpoint vs from-scratch "
      "(target: unseen OC2022 samples)");
  std::cout << "\nfine-tuning wins at " << wins << "/" << budgets.size()
            << " target budgets; the advantage should be largest when "
               "target data is scarcest\n(the foundation-model premise, "
               "paper Sec. II-B/VI).\n";

  std::remove(checkpoint.c_str());

  report.add_table("transfer", table);
  report.add_value("finetune_wins", static_cast<double>(wins),
                   BenchReport::Better::kHigher);
  report.write();
  return 0;
}
