#include "train_step.hpp"

#include <algorithm>

#include "sgnn/nn/model_io.hpp"
#include "sgnn/obs/trace.hpp"
#include "sgnn/tensor/kernels.hpp"
#include "sgnn/tensor/ops.hpp"
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
  GradSync& sync = context_.sync;
  LossScaler& scaler = context_.loss_scaler;
  const int rank = std::max(context_.rank, 0);
  sync.zero_grad();

  obs::StepTelemetry telemetry;
  Tensor total;
  {
    const obs::TraceSpan span("forward", "train");
    const obs::prof::ProfRegion region("forward");
    const ScopedTrainPhase phase(TrainPhase::kForward);
    const auto out = context_.model.forward(batch, forward);
    const LossTerms terms =
        multitask_loss(out, batch, context_.loss_weights);
    // The reported loss stays unscaled; only the backward graph sees the
    // loss-scale factor.
    telemetry.loss = terms.total.item();
    total = scaler.enabled()
                ? scale(terms.total, static_cast<real>(scaler.scale()))
                : terms.total;
  }
  {
    const obs::TraceSpan span("backward", "train");
    const obs::prof::ProfRegion region("backward");
    const ScopedTrainPhase phase(TrainPhase::kBackward);
    sync.backward(total, rank);
  }
  {
    const obs::TraceSpan span("optimizer", "train");
    const obs::prof::ProfRegion region("optimizer");
    const ScopedTrainPhase phase(TrainPhase::kOptimizer);
    if (context_.schedule) {
      // Pure function of the global step, so replicas agree for free.
      sync.set_learning_rate(context_.schedule->at_step(step_));
    }
    bool apply = true;
    if (scaler.enabled()) {
      const std::vector<Tensor> parameters = context_.model.parameters();
      apply = scaler.update(LossScaler::grads_overflowed(parameters));
      if (apply) scaler.unscale(parameters);
    }
    if (apply) {
      telemetry.grad_norm =
          sync.step(rank, /*measure_norm=*/context_.telemetry != nullptr);
    } else {
      // Overflow: skip the parameter update, keep the step count moving
      // (AMP semantics) so schedules and checkpoints stay aligned.
      SGNN_LOG_DEBUG << "step " << step_
                     << ": non-finite gradients, optimizer step skipped";
    }
  }

  telemetry.step = step_;
  telemetry.epoch = epoch_;
  telemetry.rank = context_.rank;
  // The EFFECTIVE learning rate this step used (schedule- and resume-aware),
  // not the base configuration value.
  telemetry.learning_rate = sync.learning_rate();
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

void TrainStep::emit(const obs::StepTelemetry& telemetry) const {
  obs::record_step_metrics(telemetry);
  if (context_.telemetry != nullptr) context_.telemetry->on_step(telemetry);
}

void save_training_state(SnapshotBuilder& builder, const std::string& kind,
                         std::int64_t step, std::int64_t epoch,
                         const EGNNModel& model,
                         const std::vector<GradSync*>& syncs,
                         const EpochSampler& sampler,
                         const std::vector<LossTally>& losses) {
  builder.add_bytes("meta.kind", kind);
  builder.add_i64("meta.step", step);
  builder.add_i64("meta.epoch", sampler.has_next() ? epoch : epoch + 1);
  const EpochSampler::State position = sampler.state();
  builder.add_bytes("sampler.rng", pod_bytes(position.rng));
  builder.add_u64s("sampler.order", position.order);
  builder.add_u64("sampler.cursor", position.cursor);
  std::vector<real> sums;
  std::vector<std::uint64_t> steps;
  for (const LossTally& tally : losses) {
    sums.push_back(tally.sum);
    steps.push_back(static_cast<std::uint64_t>(tally.steps));
  }
  builder.add_reals("loss.sum", sums.data(), sums.size());
  builder.add_u64s("loss.steps", steps);
  save_model_sections(builder, model);
  for (std::size_t r = 0; r < syncs.size(); ++r) {
    syncs[r]->save(builder, static_cast<int>(r));
  }
}

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

void load_training_state(const SnapshotView& view, EGNNModel& model,
                         const std::vector<GradSync*>& syncs,
                         EpochSampler& sampler,
                         std::vector<LossTally>& losses) {
  EpochSampler::State position;
  position.rng = pod_from_bytes<Rng::State>(view.bytes("sampler.rng"));
  position.order = view.u64s("sampler.order");
  position.cursor = view.u64("sampler.cursor");
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
  for (std::size_t r = 0; r < syncs.size(); ++r) {
    syncs[r]->load(view, static_cast<int>(r));
  }
}

}  // namespace sgnn
