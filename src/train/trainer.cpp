#include "sgnn/train/trainer.hpp"

#include "train_step.hpp"

#include "sgnn/obs/trace.hpp"
#include "sgnn/util/error.hpp"
#include "sgnn/util/timer.hpp"

namespace sgnn {

Trainer::Trainer(EGNNModel& model, const TrainOptions& options)
    : model_(model),
      options_(options),
      optimizer_(model.parameters(), options.adam) {
  TrainLoop::check_options(options.epochs, options.checkpoint);
  // Also false for NaN and infinities.
  SGNN_CHECK(options.lr_decay > 0.0 && options.lr_decay <= 1.0,
             "lr_decay must lie in (0, 1], got " << options.lr_decay);
  optimizer_.set_max_grad_norm(options.max_grad_norm);
  loop_ = std::make_unique<TrainLoop>("trainer", options_.checkpoint, model_,
                                      std::vector<Adam*>{&optimizer_});
}

Trainer::~Trainer() = default;

Trainer::EpochResult Trainer::train_epoch(DataLoader& loader) {
  const WallTimer timer;

  LossTally& epoch_loss = loop_->losses().front();
  if (skip_begin_epoch_) {
    // First epoch after a resume: the loader already sits at the restored
    // mid-epoch position, and the loss tally holds the epoch's steps so
    // far; reshuffling would diverge from the original run.
    skip_begin_epoch_ = false;
  } else {
    loader.begin_epoch();
    epoch_loss = LossTally{};
  }
  EGNNModel::ForwardOptions forward_options;
  forward_options.activation_checkpointing =
      options_.activation_checkpointing;
  const TrainStep::Context context{.model = model_,
                                   .optimizer = optimizer_,
                                   .rank = -1,
                                   .loss_weights = options_.loss_weights,
                                   .telemetry = telemetry_};

  const obs::TraceSpan epoch_span("train_epoch", "train");
  loop_->run_epoch(context, loader.sampler(), global_step_, epoch_index_,
                   [&](TrainStep& step) {
                     GraphBatch batch = loader.next();
                     if (use_baseline_) baseline_.subtract_from(batch);
                     return step.run(batch, forward_options);
                   });

  ++epoch_index_;
  EpochResult result;
  result.mean_train_loss = epoch_loss.mean();
  result.seconds = timer.seconds();
  return result;
}

std::vector<Trainer::EpochResult> Trainer::fit(DataLoader& loader) {
  if (loop_->resume(loader.sampler(), global_step_, epoch_index_)) {
    // A snapshot from an epoch's last step holds an exhausted order and
    // meta.epoch already names the next epoch, which reshuffles as usual.
    skip_begin_epoch_ = loader.has_next();
  }
  std::vector<EpochResult> history;
  // Replay the per-epoch decay up to the resume point by repeated
  // multiplication — the same float sequence the original run produced
  // (pow() could differ in the last bit, breaking bit-identical resume).
  double lr = options_.adam.learning_rate;
  for (std::int64_t e = 0; e < epoch_index_; ++e) lr *= options_.lr_decay;
  for (std::int64_t epoch = epoch_index_; epoch < options_.epochs; ++epoch) {
    optimizer_.set_learning_rate(lr);
    history.push_back(train_epoch(loader));
    lr *= options_.lr_decay;
  }
  return history;
}

EvalMetrics Trainer::evaluate(const std::vector<const MolecularGraph*>& graphs,
                              std::int64_t batch_size) const {
  SGNN_CHECK(!graphs.empty(), "evaluate on empty set");
  SGNN_CHECK(batch_size > 0,
             "evaluate batch_size must be positive, got " << batch_size);
  MetricAccumulator accumulator;
  std::size_t cursor = 0;
  while (cursor < graphs.size()) {
    std::vector<const MolecularGraph*> chunk;
    while (cursor < graphs.size() &&
           chunk.size() < static_cast<std::size_t>(batch_size)) {
      chunk.push_back(graphs[cursor++]);
    }
    GraphBatch batch = GraphBatch::from_graphs(chunk);
    if (use_baseline_) baseline_.subtract_from(batch);
    accumulator.add(evaluate_batch(model_, batch, options_.loss_weights));
  }
  return accumulator.mean();
}

}  // namespace sgnn
