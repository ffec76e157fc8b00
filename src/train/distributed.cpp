#include "sgnn/train/distributed.hpp"

#include "train_step.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <optional>
#include <span>
#include <thread>

#include "sgnn/data/loader.hpp"
#include "sgnn/graph/batch.hpp"
#include "sgnn/graph/partition.hpp"
#include "sgnn/obs/telemetry.hpp"
#include "sgnn/obs/trace.hpp"
#include "sgnn/tensor/kernels.hpp"
#include "sgnn/train/halo.hpp"
#include "sgnn/util/error.hpp"
#include "sgnn/util/timer.hpp"

namespace sgnn {

namespace {

/// One rank's optimizer: the options pick its collective. Graph-parallel
/// ranks get no communicator: their gradients are already replicated
/// exactly, and a DDP all-reduce-then-average of R identical gradients is
/// NOT a bitwise no-op (g + g + g rounds), so averaging would break the
/// parity contract.
std::unique_ptr<Adam> make_grad_sync(const DistTrainOptions& options,
                                     Communicator& comm,
                                     std::vector<Tensor> parameters) {
  auto optimizer = std::make_unique<Adam>(
      std::move(parameters), options.adam,
      options.graph_parallel ? nullptr : &comm,
      options.strategy == DistStrategy::kZeRO1
          ? CollectiveKind::kReduceScatter
          : CollectiveKind::kAllReduce,
      options.bucket_bytes);
  optimizer->set_max_grad_norm(options.max_grad_norm);
  return optimizer;
}

/// Rank 0's comm and halo accounting of one step from the traffic `delta`
/// its collectives added: exact on rank 0, since no collective of a step
/// completes before rank 0 posts it. The other ranks report 0.
void account_step(const InterconnectModel& interconnect, int num_ranks,
                  const Communicator::Traffic& delta, Adam& optimizer,
                  gpar::HaloExchanger* halo, obs::StepTelemetry& telemetry,
                  DistTrainReport& report) {
  // seconds() is additive over deltas, so the per-step values sum exactly
  // to the report's aggregate comm_seconds.
  telemetry.collective_bytes = delta.total_bytes();
  telemetry.comm_seconds_modeled = interconnect.seconds(delta, num_ranks);
  // Price the overlap from the post/wait stamps of the step's non-blocking
  // collectives (gradient buckets, halo exchanges). Collectives without
  // stamps (the ZeRO norm's all-reduce, blocking halo exchanges) count as
  // fully exposed: exposed = overlap-priced exposure + (delta - event total).
  std::vector<InterconnectModel::OverlapEvent> events =
      optimizer.take_overlap_events();
  telemetry.comm_buckets = static_cast<std::int64_t>(events.size());
  if (halo != nullptr) {
    const auto halo_events = halo->take_events();
    events.insert(events.end(), halo_events.begin(), halo_events.end());
  }
  const auto cost = interconnect.overlap_cost(events, num_ranks);
  const double exposed = std::min(
      telemetry.comm_seconds_modeled,
      cost.exposed_seconds +
          std::max(0.0, telemetry.comm_seconds_modeled - cost.total_seconds));
  telemetry.comm_exposed_seconds = exposed;
  telemetry.comm_overlapped_seconds = telemetry.comm_seconds_modeled - exposed;
  if (halo != nullptr) {
    // Every collective of a graph-parallel step is halo traffic.
    telemetry.halo_bytes = halo->halo_bytes();
    telemetry.halo_exchanges = halo->exchanges();
    telemetry.halo_exposed_seconds = exposed;
    telemetry.halo_overlapped_seconds = telemetry.comm_overlapped_seconds;
    report.halo_bytes += telemetry.halo_bytes;
    report.halo_exchanges += telemetry.halo_exchanges;
    report.halo_exposed_seconds += telemetry.halo_exposed_seconds;
    report.halo_overlapped_seconds += telemetry.halo_overlapped_seconds;
  }
  report.comm_exposed_seconds += telemetry.comm_exposed_seconds;
  report.comm_overlapped_seconds += telemetry.comm_overlapped_seconds;
  report.comm_buckets += telemetry.comm_buckets;
}

}  // namespace

DistributedTrainer::DistributedTrainer(const ModelConfig& config,
                                       const DistTrainOptions& options)
    : options_(options) {
  SGNN_CHECK(options.num_ranks > 0, "need at least one rank");
  TrainLoop::check_options(options.epochs, options.checkpoint);
  for (int r = 0; r < options.num_ranks; ++r) {
    replicas_.push_back(std::make_unique<EGNNModel>(config));
  }
  // Same seed means same init already, but copying makes the invariant
  // explicit and robust to config changes.
  for (int r = 1; r < options.num_ranks; ++r) {
    replicas_[static_cast<std::size_t>(r)]->copy_parameters_from(
        *replicas_.front());
  }
}

double DistributedTrainer::replica_divergence() const {
  double worst = 0;
  const auto reference = replicas_.front()->parameters();
  for (std::size_t r = 1; r < replicas_.size(); ++r) {
    const auto params = replicas_[r]->parameters();
    for (std::size_t i = 0; i < params.size(); ++i) {
      const real* a = reference[i].data();
      const real* b = params[i].data();
      for (std::int64_t k = 0; k < params[i].numel(); ++k) {
        worst = std::max(worst, std::abs(static_cast<double>(a[k] - b[k])));
      }
    }
  }
  return worst;
}

DistTrainReport DistributedTrainer::train(const DDStore& store) {
  const int R = options_.num_ranks;
  SGNN_CHECK(store.num_ranks() == R,
             "DDStore was sharded for " << store.num_ranks() << " ranks, "
                                        << "trainer has " << R);
  SGNN_CHECK(store.size() >= R, "fewer samples than ranks");

  const bool gp = options_.graph_parallel;
  if (gp) {
    // The bit-identity proof (docs/graph-parallelism.md) covers the kDDP
    // layout with replicated plain-Adam state and float64 compute; anything
    // else fails loudly instead of silently breaking the parity contract.
    SGNN_CHECK(options_.strategy == DistStrategy::kDDP,
               "graph_parallel requires the kDDP strategy (ZeRO shards "
               "optimizer state; graph-parallel ranks replicate it)");
    SGNN_CHECK(kernels::active_compute_dtype() ==
                   kernels::ComputeDtype::kFloat64,
               "graph_parallel bit-identity is proven for float64 compute "
               "only");
  }

  Communicator comm(R);
  MemoryTracker::instance().reset_peak();

  // Per-rank optimizers, constructed up front so optimizer-state memory is
  // part of the profile from step zero, as in a real framework.
  std::vector<std::unique_ptr<Adam>> owned_optimizers;
  std::vector<Adam*> optimizers;
  for (int r = 0; r < R; ++r) {
    owned_optimizers.push_back(make_grad_sync(
        options_, comm, replicas_[static_cast<std::size_t>(r)]->parameters()));
    optimizers.push_back(owned_optimizers.back().get());
  }

  // One sampler order over the store, cut into global batches; every rank
  // draws from its own copy of it. Rank r takes the r-th stride of each
  // global batch; graph-parallel ranks share ONE batch of
  // per_rank_batch_size graphs. Every rank must run the same number of
  // collective steps, so an epoch holds only full global batches.
  const std::int64_t global_batch =
      gp ? options_.per_rank_batch_size
         : static_cast<std::int64_t>(R) * options_.per_rank_batch_size;
  EpochSampler initial_sampler(static_cast<std::size_t>(store.size()),
                               global_batch, options_.sampler_seed,
                               /*shuffle=*/true, /*drop_last=*/true);
  SGNN_CHECK(initial_sampler.num_batches() > 0,
             "dataset smaller than one global batch");

  // Graph-parallel snapshots have their own kind: their plain-Adam moments
  // do not fit the DDP/ZeRO sections, so cross-mode resumes fail loudly.
  TrainLoop loop(gp ? "dist.gpar" : "dist", options_.checkpoint,
                 *replicas_.front(), optimizers, &comm,
                 {{"meta.ranks", R},
                  {"meta.strategy",
                   static_cast<std::int64_t>(options_.strategy)}});
  // Resume before the rank threads exist. A rank's loss tally is run-long.
  std::int64_t start_step = 0;
  std::int64_t start_epoch = 0;
  if (loop.resume(initial_sampler, start_step, start_epoch)) {
    for (int r = 1; r < R; ++r) {
      replicas_[static_cast<std::size_t>(r)]->copy_parameters_from(
          *replicas_.front());
    }
  }

  std::vector<double> rank_seconds(static_cast<std::size_t>(R), 0.0);
  // The step count and the overlap/halo accounting are rank 0's, written
  // only by the rank-0 worker (the thread join below publishes them).
  DistTrainReport report;

  const auto worker = [&](int rank) {
    const auto ri = static_cast<std::size_t>(rank);
    // Tags spans and log lines from this thread with the rank, so the
    // exported trace renders one timeline per simulated GPU.
    const obs::ScopedTraceRank trace_rank(rank);
    Adam& optimizer = *optimizers[ri];
    const TrainStep::Context context{.model = *replicas_[ri],
                                     .optimizer = optimizer,
                                     .rank = rank,
                                     .loss_weights = options_.loss_weights,
                                     .telemetry = options_.telemetry};
    EpochSampler sampler = initial_sampler;
    const WallTimer timer;
    std::int64_t step = start_step;

    // Crash-during-overlap fault injection, between posting a step's last
    // gradient bucket (or halo gather) and the first wait. Every rank
    // throws at the same step, so the posted symmetric ops still complete.
    const std::int64_t crash_step = options_.checkpoint.crash_in_overlap_step;
    const auto crash_in_overlap = [&step, crash_step] {
      if (step + 1 == crash_step) throw ckpt::SimulatedCrash(step);
    };
    if (crash_step > 0) optimizer.set_pre_drain_hook(crash_in_overlap);

    const TrainLoop::RunBatch run_batch = [&](TrainStep& train_step) {
      std::vector<const MolecularGraph*> samples;
      {
        const obs::TraceSpan span("fetch_batch", "data");
        const std::span<const std::size_t> global = sampler.next();
        for (std::int64_t b = 0; b < options_.per_rank_batch_size; ++b) {
          const std::int64_t position = gp ? b : b * R + rank;
          samples.push_back(&store.fetch(
              rank, static_cast<std::int64_t>(
                        global[static_cast<std::size_t>(position)])));
        }
      }
      const GraphBatch batch = GraphBatch::from_graphs(samples);

      EGNNModel::ForwardOptions forward_options;
      forward_options.activation_checkpointing =
          options_.activation_checkpointing;
      // Graph-parallel: partition the shared batch and stand up the step's
      // halo exchanger, whose buffers in-flight collectives own until the
      // step returns.
      std::optional<gpar::GraphPartition> partition;
      std::optional<gpar::HaloExchanger> halo;
      if (gp) {
        partition.emplace(gpar::GraphPartition::build(batch, R));
        halo.emplace(comm, rank, *partition, batch);
        forward_options.graph_parallel = &*halo;
        if (crash_step > 0) halo->set_pre_wait_hook(crash_in_overlap);
      }
      const Communicator::Traffic traffic_before =
          rank == 0 ? comm.traffic() : Communicator::Traffic{};
      obs::StepTelemetry telemetry = train_step.run(batch, forward_options);
      if (rank == 0) {
        account_step(interconnect_, R, comm.traffic().since(traffic_before),
                     optimizer, halo ? &*halo : nullptr, telemetry, report);
      }
      return telemetry;
    };

    for (std::int64_t epoch = start_epoch; epoch < options_.epochs; ++epoch) {
      // A fresh run's epoch 0 and a mid-epoch resume continue the order the
      // sampler holds; every other epoch reshuffles the previous one.
      if (!sampler.has_next()) sampler.begin_epoch();
      loop.run_epoch(context, sampler, step, epoch, run_batch);
    }
    rank_seconds[ri] = timer.seconds();
    if (rank == 0) report.steps = step - start_step;
  };

  std::vector<std::exception_ptr> worker_errors(static_cast<std::size_t>(R));
  // sgnn-lint: allow(thread): the multi-rank driver runs one OS thread per
  // simulated rank by design; worker parallelism inside each rank still
  // goes through the shared ThreadPool.
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(R));
  for (int r = 0; r < R; ++r) {
    threads.emplace_back([&worker, &worker_errors, r] {
      // An exception escaping a std::thread terminates the process; park it
      // and rethrow on the joining thread instead.
      try {
        worker(r);
      } catch (...) {
        worker_errors[static_cast<std::size_t>(r)] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& error : worker_errors) {
    if (error) std::rethrow_exception(error);
  }

  SGNN_CHECK(replica_divergence() == 0.0,
             "replicas diverged — gradient synchronization is broken");

  double loss_sum = 0;
  for (const LossTally& tally : loop.losses()) loss_sum += tally.mean();
  report.final_train_loss = loss_sum / R;
  report.compute_seconds =
      *std::max_element(rank_seconds.begin(), rank_seconds.end());
  report.collective_traffic = comm.traffic();
  report.data_traffic = store.stats();
  const MemoryTracker& memory = MemoryTracker::instance();
  report.peak_memory = memory.peak();
  report.peak_phase = memory.peak_phase();
  report.peak_forward = memory.peak_during(TrainPhase::kForward);
  report.peak_backward = memory.peak_during(TrainPhase::kBackward);
  report.peak_optimizer = memory.peak_during(TrainPhase::kOptimizer);

  // The formula the per-step telemetry uses; additive over traffic deltas,
  // so it equals the sum of the per-step comm_seconds_modeled values.
  report.comm_seconds = interconnect_.seconds(report.collective_traffic, R);
  return report;
}

}  // namespace sgnn
