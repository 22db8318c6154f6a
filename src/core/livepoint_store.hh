/**
 * @file
 * The live-point store: the producer/consumer split of sampled
 * simulation (after Wenisch, Wunderlich, Falsafi & Hoe, "Simulation
 * Sampling with Live-Points", ISPASS 2006 — the paper's reference [18]).
 *
 * A one-time *producer* pass (`rsr_sim mklvpt`) runs the deferred front
 * half of sampled simulation — functional execution, warm-up, and the
 * per-cluster CapturePhase — and stores each cluster's warmed machine
 * (serialized here, at the store boundary, as its snapshot), committed
 * trace, and measurement context as content-addressed
 * blobs in a BlobStoreWriter: frames are keyed by their FNV-1a-64 content
 * hash, so identical state across clusters (common for small predictors
 * or quickly-saturating caches) is stored once. Trace blobs are record
 * payloads of the src/trace delta codec, the same records a trace file
 * holds. A versioned index frame ('LVPT' v5) records the capture
 * metadata — workload, policy, schedule, machine schema bytes,
 * estimator selection — plus one entry per cluster referencing the
 * blobs by hash. Stores written with an
 * older index version are rejected as version skew and must be
 * recaptured.
 *
 * Any number of *consumer* passes (`rsr_sim replay`,
 * harness::replayStoreParallel) then measure the stored clusters with
 * zero functional re-simulation, in any order, on any thread. Because
 * capture goes through the same CapturePhase as every sampled run and
 * the measurement context round-trips bit-exactly, a replay from the
 * store reproduces `runSampled`'s Table-2 statistics bit-identically for
 * every warm-up policy — including RSR's on-demand branch
 * reconstruction.
 */

#ifndef RSR_CORE_LIVEPOINT_STORE_HH
#define RSR_CORE_LIVEPOINT_STORE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/estimator.hh"
#include "core/phase_driver.hh"
#include "core/sampled_sim.hh"
#include "util/content_store.hh"

namespace rsr::core
{

/** One stored cluster: blob references plus replay bookkeeping. */
struct LivePointEntry
{
    Cluster cluster;
    /** Sequence number of the cluster's first committed instruction
     *  (traces are contiguous commit streams; the timing model indexes
     *  its ROB by absolute sequence number, so replay must regenerate
     *  the exact values). */
    std::uint64_t firstSeq = 0;
    /** Content hash of the framed machine snapshot. */
    std::uint64_t stateHash = 0;
    /** Content hash of the committed trace's record payload. */
    std::uint64_t traceHash = 0;
    /** Does this cluster carry a measurement context (RSR/RBP)? */
    bool hasContext = false;
    std::uint64_t contextHash = 0;
    /** Estimator group of this cluster: the rank class for
     *  ranked-set captures, the stratum id for two-phase captures, 0 for
     *  uniform. Replays feed these straight into rankedSetEstimate() /
     *  stratifiedEstimate() without recomputing the selection. */
    std::uint32_t group = 0;
};

/**
 * A validated, immutable live-point store for one
 * (workload, policy, schedule, machine) capture. Move-only; lookups and
 * task decodes are const and thread-safe.
 */
class LivePointStore
{
  public:
    /** Capture-time metadata, stored in the index frame. */
    struct Metadata
    {
        std::string workload;
        std::string policy;
        std::uint64_t totalInsts = 0;
        std::uint64_t scheduleSeed = 0;
        SamplingRegimen regimen;
        MachineConfig machine;
        /** Sampling-estimator capture parameters (defaults describe a
         *  plain uniform capture). */
        EstimatorOptions estimator;
        /** Size of the candidate pool the estimator's selection plan
         *  drew from (0 for uniform captures). */
        std::uint64_t candidateCount = 0;
    };

    /**
     * Estimator capture annotations handed to create(): which selection
     * produced the (explicit) schedule being captured, and each
     * cluster's estimator group, parallel to the schedule.
     */
    struct CaptureAnnotations
    {
        EstimatorOptions estimator;
        std::uint64_t candidateCount = 0;
        std::vector<std::uint32_t> groups;
    };

    /**
     * Producer: run the deferred front half once under @p policy and
     * store every cluster. No timing replay happens here — that is the
     * consumer's job. @p front_half, when non-null, receives the
     * front-half accounting (skip/reconstruct/capture counters).
     * @p annotations, when non-null, records the estimator selection
     * that produced config.explicitSchedule (groups must be parallel to
     * the schedule).
     */
    static LivePointStore create(const func::Program &program,
                                 WarmupPolicy &policy,
                                 const SampledConfig &config,
                                 const std::string &workload_name,
                                 const std::string &policy_name,
                                 SampledResult *front_half = nullptr,
                                 const CaptureAnnotations *annotations =
                                     nullptr);

    /**
     * Open a serialized store, validating the whole container (magic,
     * version, index checksum, every blob's content hash, every index
     * reference, every trace blob's record count). Throws
     * CorruptInputError on any damage.
     */
    static LivePointStore deserialize(std::vector<std::uint8_t> bytes);

    /** The complete serialized container. */
    const std::vector<std::uint8_t> &serialize() const;

    /** Atomically write the store to @p path. */
    void saveFile(const std::string &path) const;

    /** Read and validate a store written by saveFile(). */
    static LivePointStore loadFile(const std::string &path);

    const Metadata &meta() const { return meta_; }
    const std::vector<LivePointEntry> &entries() const { return entries_; }
    std::size_t clusterCount() const { return entries_.size(); }

    /**
     * Decode stored cluster @p index into a ready-to-measure replay
     * task. Const and thread-safe: replay workers decode concurrently.
     * The consumer is harness::replayStoreParallel(), which measures
     * every task under a machine configuration whose cache/predictor
     * geometry matches the capture (the core may differ — that is what
     * makes one capture serve a design-space sweep).
     */
    ClusterReplayTask makeReplayTask(std::size_t index) const;

    /** FNV-1a-64 over the whole serialized container. */
    std::uint64_t storeHash() const;

    /**
     * The capture key: what a store *should* contain — workload,
     * policy, schedule parameters and the machine's capture (non-
     * `core.*`) fields, so one store replays under any core. Replay
     * validation, campaign store reuse and the serve store cache all
     * compare it.
     */
    static std::uint64_t configHash(const std::string &workload,
                                    const std::string &policy,
                                    const SampledConfig &config);

    /**
     * configHash() folding in an estimator selection. The explicit
     * schedule itself is deliberately *not* hashed: it is a pure
     * deterministic function of (workload, policy, config, estimator
     * options), so hashing the inputs is equivalent and lets replay-side
     * validation compute the expected hash from CLI flags without
     * re-running the proxy pass. Identical to the plain overload when
     * the options describe uniform sampling. Two-phase also folds in the
     * machine's `core.*` fields: its pilot clusters are timed on the
     * whole machine, so a two-phase store serves only the core it was
     * captured on.
     */
    static std::uint64_t configHash(const std::string &workload,
                                    const std::string &policy,
                                    const SampledConfig &config,
                                    const EstimatorOptions &estimator,
                                    std::uint64_t candidate_count);

    /** configHash() of this store's own metadata. */
    std::uint64_t configHash() const;

    // ---- storage accounting (bench/livepoint_store.cc reports these).

    /** offered / stored — 1.0 means no cross-cluster sharing. */
    double dedupRatio() const;

    /** Serialized container bytes per stored cluster. */
    double bytesPerCluster() const;

  private:
    LivePointStore() = default;

    Metadata meta_;
    std::vector<LivePointEntry> entries_;
    std::uint64_t offeredBytes_ = 0;
    std::unique_ptr<BlobStoreReader> reader_;
};

} // namespace rsr::core

#endif // RSR_CORE_LIVEPOINT_STORE_HH
