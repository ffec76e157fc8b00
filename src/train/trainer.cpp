#include "sgnn/train/trainer.hpp"

#include "train_step.hpp"

#include "sgnn/obs/trace.hpp"
#include "sgnn/util/error.hpp"
#include "sgnn/util/timer.hpp"

namespace sgnn {

Trainer::Trainer(EGNNModel& model, const TrainOptions& options)
    : model_(model),
      options_(options),
      optimizer_(model.parameters(), options.adam),
      loss_scaler_(options.loss_scaling) {
  SGNN_CHECK(options.epochs > 0, "epochs must be positive");
  SGNN_CHECK(options.checkpoint.every_steps <= 0 ||
                 !options.checkpoint.directory.empty(),
             "checkpoint.every_steps needs checkpoint.directory");
  optimizer_.set_max_grad_norm(options.max_grad_norm);
}

void Trainer::maybe_checkpoint(const DataLoader& loader) {
  const auto& copt = options_.checkpoint;
  if (copt.every_steps <= 0) return;
  if (global_step_ % copt.every_steps != 0) return;
  if (!ckpt_manager_) {
    ckpt_manager_.emplace(copt.directory, copt.keep_last);
  }
  SnapshotBuilder builder;
  save_training_state(builder, "trainer", global_step_, epoch_index_, model_,
                      {&optimizer_}, loader.sampler());
  ckpt_manager_->save(static_cast<std::uint64_t>(global_step_),
                      builder.payload());
}

void Trainer::try_resume(DataLoader& loader) {
  const auto view =
      find_resume_snapshot(options_.checkpoint.resume_from, "trainer");
  if (!view) return;
  load_training_state(*view, model_, {&optimizer_}, loader.sampler());
  global_step_ = view->i64("meta.step");
  epoch_index_ = view->i64("meta.epoch");
  // A snapshot from an epoch's last step holds an exhausted order and
  // meta.epoch already names the next epoch, which reshuffles as usual.
  skip_begin_epoch_ = loader.has_next();
}

Trainer::EpochResult Trainer::train_epoch(DataLoader& loader) {
  const WallTimer timer;
  double loss_sum = 0;
  std::int64_t batches = 0;

  if (skip_begin_epoch_) {
    // First epoch after a resume: the loader already sits at the restored
    // mid-epoch position; reshuffling would diverge from the original run.
    skip_begin_epoch_ = false;
  } else {
    loader.begin_epoch();
  }
  EGNNModel::ForwardOptions forward_options;
  forward_options.activation_checkpointing =
      options_.activation_checkpointing;
  const TrainStep::Context context{.model = model_,
                                   .sync = optimizer_,
                                   .rank = -1,
                                   .loss_weights = options_.loss_weights,
                                   .schedule = options_.schedule,
                                   .loss_scaler = loss_scaler_,
                                   .telemetry = telemetry_};

  const obs::TraceSpan epoch_span("train_epoch", "train");

  while (loader.has_next()) {
    TrainStep step(context, global_step_, epoch_index_);
    GraphBatch batch = loader.next();
    if (use_baseline_) baseline_.subtract_from(batch);
    const obs::StepTelemetry telemetry = step.run(batch, forward_options);
    step.emit(telemetry);
    loss_sum += telemetry.loss;
    ++global_step_;
    ++batches;
    maybe_checkpoint(loader);
    ckpt::maybe_crash(options_.checkpoint, global_step_);
  }

  ++epoch_index_;
  EpochResult result;
  result.mean_train_loss =
      batches > 0 ? loss_sum / static_cast<double>(batches) : 0.0;
  result.seconds = timer.seconds();
  return result;
}

std::vector<Trainer::EpochResult> Trainer::fit(DataLoader& loader) {
  try_resume(loader);
  std::vector<EpochResult> history;
  // Replay the per-epoch decay up to the resume point by repeated
  // multiplication — the same float sequence the original run produced
  // (pow() could differ in the last bit, breaking bit-identical resume).
  double lr = options_.adam.learning_rate;
  for (std::int64_t epoch = 0; epoch < epoch_index_; ++epoch) {
    lr *= options_.lr_decay;
  }
  for (std::int64_t epoch = epoch_index_; epoch < options_.epochs; ++epoch) {
    // A step-based schedule takes precedence over the per-epoch decay.
    if (!options_.schedule) optimizer_.set_learning_rate(lr);
    history.push_back(train_epoch(loader));
    lr *= options_.lr_decay;
  }
  return history;
}

EvalMetrics Trainer::evaluate(const std::vector<const MolecularGraph*>& graphs,
                              std::int64_t batch_size) const {
  SGNN_CHECK(!graphs.empty(), "evaluate on empty set");
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
