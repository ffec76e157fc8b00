#include "train_step.hpp"

#include <algorithm>

#include "sgnn/nn/model_io.hpp"
#include "sgnn/obs/trace.hpp"
#include "sgnn/tensor/kernels.hpp"
#include "sgnn/util/error.hpp"
#include "sgnn/util/logging.hpp"

namespace sgnn {

TrainStep::TrainStep(const Context& context, std::int64_t step,
                     std::int64_t epoch)
    : context_(context),
      step_(step),
      epoch_(epoch),
      prof_before_(context.rank <= 0 ? obs::prof::totals()
                                     : obs::prof::Totals{}),
      region_("train_step") {}

obs::StepTelemetry TrainStep::run(const GraphBatch& batch,
                                  const EGNNModel::ForwardOptions& forward) {
  Adam& optimizer = context_.optimizer;
  const int rank = std::max(context_.rank, 0);
  optimizer.zero_grad();

  obs::StepTelemetry telemetry;
  Tensor total;
  {
    const obs::TraceSpan span("forward", "train");
    const obs::prof::ProfRegion region("forward");
    const ScopedTrainPhase phase(TrainPhase::kForward);
    const auto out = context_.model.forward(batch, forward);
    total = multitask_loss(out, batch, context_.loss_weights).total;
    telemetry.loss = total.item();
  }
  {
    const obs::TraceSpan span("backward", "train");
    const obs::prof::ProfRegion region("backward");
    const ScopedTrainPhase phase(TrainPhase::kBackward);
    optimizer.backward(total, rank);
  }
  {
    const obs::TraceSpan span("optimizer", "train");
    const obs::prof::ProfRegion region("optimizer");
    const ScopedTrainPhase phase(TrainPhase::kOptimizer);
    telemetry.grad_norm =
        optimizer.step(rank, /*measure_norm=*/context_.telemetry != nullptr);
  }

  telemetry.step = step_;
  telemetry.epoch = epoch_;
  telemetry.rank = context_.rank;
  // The learning rate this step used: Trainer::fit's per-epoch decay
  // (replayed on resume) moves it away from the configured value.
  telemetry.learning_rate = optimizer.learning_rate();
  telemetry.batch_graphs = batch.num_graphs;
  telemetry.batch_atoms = batch.num_nodes;
  telemetry.batch_edges = batch.num_edges;
  telemetry.step_seconds = timer_.seconds();
  if (telemetry.step_seconds > 0) {
    telemetry.atoms_per_sec =
        static_cast<double>(telemetry.batch_atoms) / telemetry.step_seconds;
    telemetry.graphs_per_sec =
        static_cast<double>(telemetry.batch_graphs) / telemetry.step_seconds;
  }
  telemetry.live_bytes = MemoryTracker::instance().live().total();
  telemetry.peak_bytes = MemoryTracker::instance().peak_total();
  if (context_.rank <= 0) {
    const obs::prof::Totals prof_after = obs::prof::totals();
    telemetry.kernel_seconds =
        prof_after.kernel_seconds - prof_before_.kernel_seconds;
    telemetry.kernel_flops = prof_after.flops - prof_before_.flops;
    telemetry.kernel_bytes = prof_after.bytes - prof_before_.bytes;
  }
  telemetry.kernel_backend = kernels::backend_name(kernels::active_backend());
  telemetry.compute_dtype =
      kernels::dtype_name(kernels::active_compute_dtype());
  return telemetry;
}

namespace {

/// meta.kind, meta.step (completed steps), meta.epoch (the epoch of the
/// NEXT step), sampler.{rng,order,cursor,batch_size}, loss.{sum,steps} (one
/// entry per rank), the model.* sections and every rank's optimizer ones.
void save_training_state(SnapshotBuilder& builder, const std::string& kind,
                         std::int64_t step, std::int64_t epoch,
                         const EGNNModel& model,
                         const std::vector<Adam*>& optimizers,
                         const EpochSampler& sampler,
                         const std::vector<LossTally>& losses) {
  builder.add_bytes("meta.kind", kind);
  builder.add_i64("meta.step", step);
  builder.add_i64("meta.epoch", sampler.has_next() ? epoch : epoch + 1);
  const EpochSampler::State position = sampler.state();
  builder.add_bytes("sampler.rng", pod_bytes(position.rng));
  builder.add_u64s("sampler.order", position.order);
  builder.add_u64("sampler.cursor", position.cursor);
  builder.add_u64("sampler.batch_size", position.batch_size);
  std::vector<real> sums;
  std::vector<std::uint64_t> steps;
  for (const LossTally& tally : losses) {
    sums.push_back(tally.sum);
    steps.push_back(static_cast<std::uint64_t>(tally.steps));
  }
  builder.add_reals("loss.sum", sums.data(), sums.size());
  builder.add_u64s("loss.steps", steps);
  save_model_sections(builder, model);
  for (std::size_t r = 0; r < optimizers.size(); ++r) {
    optimizers[r]->save(builder, static_cast<int>(r));
  }
}

/// The newest readable snapshot under `location`: nullopt when it is empty
/// or (with a warning) holds nothing readable; Error when its meta.kind is
/// not `kind`, so another trainer's snapshot is never half-applied.
std::optional<SnapshotView> find_resume_snapshot(const std::string& location,
                                                 const std::string& kind) {
  if (location.empty()) return std::nullopt;
  const auto loaded = ckpt::CheckpointManager::load_latest(location);
  if (!loaded) {
    SGNN_LOG_WARN << "no readable checkpoint under '" << location
                  << "'; starting fresh";
    return std::nullopt;
  }
  SnapshotView view(loaded->payload);
  const std::string& found = view.bytes("meta.kind");
  SGNN_CHECK(found == kind, "snapshot '" << loaded->path << "' is a '"
                                         << found << "' checkpoint, expected '"
                                         << kind << "'");
  SGNN_LOG_INFO << "resuming " << kind << " training from " << loaded->path
                << " (step " << view.i64("meta.step") << ", epoch "
                << view.i64("meta.epoch") << ")";
  return view;
}

/// Restores the sampler first, so a position that does not fit fails
/// before anything else changes; then the tallies, model and optimizers.
void load_training_state(const SnapshotView& view, EGNNModel& model,
                         const std::vector<Adam*>& optimizers,
                         EpochSampler& sampler,
                         std::vector<LossTally>& losses) {
  EpochSampler::State position;
  position.rng = pod_from_bytes<Rng::State>(view.bytes("sampler.rng"));
  position.order = view.u64s("sampler.order");
  position.cursor = view.u64("sampler.cursor");
  position.batch_size = view.u64("sampler.batch_size");
  sampler.restore_state(position);
  const std::vector<real> sums = view.reals("loss.sum");
  const std::vector<std::uint64_t> steps = view.u64s("loss.steps");
  SGNN_CHECK(sums.size() == losses.size() && steps.size() == losses.size(),
             "snapshot holds " << sums.size() << " loss tallies, expected "
                               << losses.size());
  for (std::size_t r = 0; r < losses.size(); ++r) {
    losses[r] = LossTally{sums[r], static_cast<std::int64_t>(steps[r])};
  }
  load_model_sections(view, model);
  for (std::size_t r = 0; r < optimizers.size(); ++r) {
    optimizers[r]->load(view, static_cast<int>(r));
  }
}

}  // namespace

void TrainLoop::check_options(std::int64_t epochs,
                              const ckpt::CheckpointOptions& checkpoint) {
  SGNN_CHECK(epochs > 0, "epochs must be positive");
  SGNN_CHECK(checkpoint.every_steps <= 0 || !checkpoint.directory.empty(),
             "checkpoint.every_steps needs checkpoint.directory");
}

TrainLoop::TrainLoop(std::string kind,
                     const ckpt::CheckpointOptions& checkpoint,
                     EGNNModel& model, std::vector<Adam*> optimizers,
                     Communicator* comm,
                     std::vector<std::pair<std::string, std::int64_t>> meta)
    : kind_(std::move(kind)),
      checkpoint_(checkpoint),
      model_(model),
      optimizers_(std::move(optimizers)),
      comm_(comm),
      meta_(std::move(meta)),
      losses_(optimizers_.size()) {
  if (checkpoint.every_steps > 0) {
    manager_.emplace(checkpoint.directory, checkpoint.keep_last);
  }
}

bool TrainLoop::resume(EpochSampler& sampler, std::int64_t& step,
                       std::int64_t& epoch) {
  const auto view = find_resume_snapshot(checkpoint_.resume_from, kind_);
  if (!view) return false;
  for (const auto& [name, value] : meta_) {
    SGNN_CHECK(view->i64(name) == value, "checkpoint " << name << " is "
                                             << view->i64(name)
                                             << ", this run has " << value);
  }
  load_training_state(*view, model_, optimizers_, sampler, losses_);
  step = view->i64("meta.step");
  epoch = view->i64("meta.epoch");
  return true;
}

void TrainLoop::run_epoch(const TrainStep::Context& context,
                          EpochSampler& sampler, std::int64_t& step,
                          std::int64_t epoch, const RunBatch& run_batch) {
  const int rank = std::max(context.rank, 0);
  LossTally& tally = losses_[static_cast<std::size_t>(rank)];
  while (sampler.has_next()) {
    TrainStep train_step(context, step, epoch);
    const obs::StepTelemetry telemetry = run_batch(train_step);
    obs::record_step_metrics(telemetry);
    if (context.telemetry != nullptr) context.telemetry->on_step(telemetry);
    tally.add(telemetry.loss);
    ++step;
    if (manager_ && step % checkpoint_.every_steps == 0) {
      // The one snapshot write. Rank 0 writes ALL ranks' state between two
      // barriers: every other rank is parked in the second barrier while
      // the writer reads the shared parameters, the loss tallies and (for
      // ZeRO) the other ranks' moment shards, so the cross-thread reads are
      // race-free — the barrier's mutex/condvar is the happens-before edge.
      if (comm_ != nullptr) comm_->barrier();
      if (rank == 0) {
        SnapshotBuilder builder;
        save_training_state(builder, kind_, step, epoch, model_, optimizers_,
                            sampler, losses_);
        for (const auto& [name, value] : meta_) builder.add_i64(name, value);
        manager_->save(static_cast<std::uint64_t>(step), builder.payload());
      }
      if (comm_ != nullptr) comm_->barrier();
    }
    // Fault injection: every rank reaches this point with the same step
    // count and throws together, so no rank is left behind in a barrier.
    ckpt::maybe_crash(checkpoint_, step);
  }
}

}  // namespace sgnn
