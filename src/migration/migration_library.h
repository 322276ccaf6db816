// The Migration Library (ML) — paper §V-C / §VI-B.
//
// Linked into every migratable enclave (same protection domain — the host
// enclave grants it friend access to its trusted runtime).  It provides:
//
//  * MIGRATABLE SEALING: instead of the CPU-bound sealing key, data is
//    sealed under a Migration Sealing Key (MSK) generated once per enclave
//    lifetime.  The MSK itself is sealed with the standard (machine-bound)
//    sealing key inside the library's persistent buffer and travels to the
//    destination only through attested Migration Enclaves.
//
//  * MIGRATABLE COUNTERS: wrappers over the SGX monotonic counters that
//    add a per-counter OFFSET.  effective = offset + hardware value.  On
//    migration the source sends effective values; the destination stores
//    them as offsets over fresh (zero) hardware counters — constant-time
//    counter migration regardless of counter value (§VI-B), the design
//    choice benchmarked in bench/ablation_counter_offset.cpp.
//    Application code addresses counters by a small library-assigned id
//    instead of the SGX UUID (the only API change vs. the SDK).
//
//  * THE MIGRATION PROTOCOL CLIENT: local attestation of the ME, the
//    freeze flag, counter destruction before data leaves the machine, and
//    the incoming-migration restore path.
//
// Crash-consistency note: the library re-seals and persists its internal
// buffer (Table II) inside every *mutating* counter operation — losing
// the UUID table or offsets would permanently strand the enclave's
// counters.  WHEN that persist happens is delegated to a pluggable
// PersistenceEngine (persistence_engine.h).  The default SyncPersist is
// paper-faithful — one seal + OCALL per mutation, the mechanistic source
// of the small overhead on create/increment/destroy in Fig. 3 (≤ ~12%);
// reads touch no state and show no significant overhead.  Batching
// engines defer the commit but are fenced (flush) before any
// migration/freeze event and before a hardware counter is destroyed.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "migration/library_state.h"
#include "migration/persistence_engine.h"
#include "migration/protocol.h"
#include "net/channel.h"
#include "sgx/enclave.h"

namespace sgxmig::obs {
class TraceRecorder;
}  // namespace sgxmig::obs

namespace sgxmig::migration {

/// Paper Fig. 1: how the enclave is being initialized.
enum class InitState : uint8_t {
  kNew = 1,      // first-ever start: generate a fresh MSK
  kRestore = 2,  // restart on the same machine: reload the sealed buffer
  kMigrate = 3,  // start on the destination machine: fetch incoming data
};

struct CreatedMigratableCounter {
  uint32_t counter_id = 0;  // library-assigned id (not the SGX UUID)
  uint32_t value = 0;       // effective value (starts at 0)
};

/// Convergence policy for iterative pre-copy, mirroring
/// vm::LiveMigrationEngine (kMaxPrecopyRounds / stop-and-copy threshold):
/// keep shipping dirty-chunk rounds while the enclave runs, freeze once
/// the delta is small enough or the round budget is spent.
struct PrecopyOptions {
  uint32_t max_rounds = 8;
  /// A round that ships this many chunks or fewer is considered converged
  /// (the remaining delta is cheap enough to move inside the freeze).
  uint32_t min_delta_chunks = 1;
};

/// Outcome of one pre-copy round.
struct PrecopyRoundReport {
  uint32_t round = 0;           // 0-based round index just shipped
  uint32_t chunks_shipped = 0;  // dirty chunks moved this round
  uint64_t bytes_shipped = 0;   // serialized payload bytes this round

  bool converged(const PrecopyOptions& options) const {
    return chunks_shipped <= options.min_delta_chunks ||
           round + 1 >= options.max_rounds;
  }
};

/// Coarse classification of a migration_start failure, so callers driving
/// many migrations (the fleet orchestrator) can decide mechanically
/// whether retrying — possibly against another destination — can help.
enum class MigrationFailureClass : uint8_t {
  kNone = 0,          // no failure
  kRetryableNetwork,  // transient transport loss/corruption: retry
  kRetryableBusy,     // a service or the destination ME is busy: back off
  kFatalPolicy,       // migration policy denied this destination
  kFatalState,        // the library cannot migrate in its current state
  kFatalInternal,     // attestation/crypto/internal failure: do not retry
};

const char* migration_failure_class_name(MigrationFailureClass cls);
bool migration_failure_is_retryable(MigrationFailureClass cls);

/// Maps a Status from the migration_start path to a failure class.
MigrationFailureClass classify_migration_failure(Status status);

/// Structured outcome of migration_start: the bare Status plus a failure
/// class and a message naming the protocol step that failed.
struct MigrationStartResult {
  Status status = Status::kOk;
  MigrationFailureClass failure_class = MigrationFailureClass::kNone;
  std::string message;  // empty on success

  bool ok() const { return status == Status::kOk; }
  bool retryable() const {
    return migration_failure_is_retryable(failure_class);
  }
  /// Not a failure: the attempt is queued or mid-protocol — pump, then
  /// poll (or step) again.
  bool in_flight() const {
    return status == Status::kMigrationInProgress &&
           failure_class == MigrationFailureClass::kNone;
  }
  /// An in-flight result whose message says where the attempt stands.
  static MigrationStartResult pending(std::string message);
};

class MigrationLibrary : private PersistSink {
 public:
  /// `host` is the enclave embedding this library.  `engine` decides when
  /// the Table II buffer is sealed + OCALLed out; nullptr selects the
  /// paper-faithful SyncPersist.  `live_transfer_capable` makes the
  /// library create an epoch-guard hardware counter at init (kNew /
  /// kMigrate) — the prerequisite for iterative pre-copy migration, and a
  /// one-counter cost on init plus one hardware-counter read on restore.
  /// Off by default: legacy enclaves keep the paper's exact init costs
  /// and full-snapshot migration semantics.
  explicit MigrationLibrary(sgx::Enclave& host,
                            std::unique_ptr<PersistenceEngine> engine = nullptr,
                            bool live_transfer_capable = false);

  /// OCALL the library uses to hand its sealed persistent buffer to the
  /// untrusted application for storage (invoked on mutating counter ops
  /// and migration events; after migration_init the application should
  /// store sealed_state() itself).
  using PersistCallback = std::function<void(ByteView sealed_state)>;
  void set_persist_callback(PersistCallback callback) {
    persist_callback_ = std::move(callback);
  }

  /// Overrides the MRENCLAVE the library expects the local ME to attest
  /// with (defaults to MigrationEnclave::standard_image()).
  void set_expected_me_measurement(const sgx::Measurement& mr) {
    expected_me_mr_ = mr;
  }

  // ----- Listing 1: interface for the untrusted application -----

  /// Initializes the library.  `state_buffer` is the previously stored
  /// sealed buffer for kRestore (ignored otherwise).  Refuses to operate
  /// if the restored buffer carries the freeze flag (the enclave was
  /// migrated away).  For kMigrate, contacts the local ME and applies the
  /// incoming migration data.
  Status migration_init(ByteView state_buffer, InitState init_state,
                        const std::string& me_address);

  /// Starts a migration to `destination_address`: freezes the library,
  /// collects effective counter values, DESTROYS the hardware counters,
  /// sets + persists the freeze flag, and hands the migration data to the
  /// local ME.  `policy` optionally constrains the destination (§X
  /// extension); it is enforced by the source ME against the
  /// destination's certified attributes.  On failure the collected data
  /// stays staged so the application can retry with another destination.
  Status migration_start(const std::string& destination_address,
                         MigrationPolicy policy = {});

  /// Like migration_start, but reports a structured failure (class +
  /// message naming the failing protocol step) instead of a bare Status.
  MigrationStartResult migration_start_detailed(
      const std::string& destination_address, MigrationPolicy policy = {});

  // ----- pipelined (non-blocking) migration start -----
  //
  // The blocking migration_start holds the caller for the whole ME<->ME
  // conversation, so a fleet driver can only overlap transfers by
  // spending one thread each.  The enqueue/poll pair instead hands the
  // staged snapshot to the local ME's TransferTask pipeline and returns;
  // the ME interleaves every queued transfer over independent RA
  // channels, and the caller polls for the fate of exactly this attempt.

  /// Runs the same destructive prologue as migration_start (freeze,
  /// collect, destroy counters, persist the freeze flag) and queues the
  /// transfer at the local ME.  kOk means QUEUED — the migration is in
  /// flight until migration_poll_transfer reports its fate.  Failures
  /// are classified like migration_start and leave the staged data for a
  /// retry (possibly re-routed).
  MigrationStartResult migration_enqueue_detailed(
      const std::string& destination_address, MigrationPolicy policy = {});

  /// Freeze-aware variant of migration_enqueue_detailed: reserves a
  /// transfer slot at the local ME WITHOUT freezing — the enclave keeps
  /// mutating counters while the ME queues, attests the destination, and
  /// parks the slot.  Only when migration_poll_transfer observes
  /// kSlotLive does the library run the destructive freeze+collect and
  /// arm the payload, so a queued transfer waits live, not frozen.  If a
  /// previous attempt already froze (staged data exists), this degrades
  /// to migration_enqueue_detailed — the freeze already happened.
  MigrationStartResult migration_reserve_detailed(
      const std::string& destination_address, MigrationPolicy policy = {});

  /// Fate of the queued attempt: kOk = the destination accepted (the
  /// source side is done, metrics updated); status kMigrationInProgress
  /// with failure_class kNone = still in flight, poll again after
  /// pumping; anything else = terminal failure of THIS attempt,
  /// classified for the caller's retry machinery (staged data kept).
  /// For reserved (freeze-aware) attempts, the poll that observes
  /// kSlotLive runs the freeze+collect+arm step inline.
  MigrationStartResult migration_poll_transfer();

  /// True while an enqueued attempt is awaiting its poll verdict.
  bool transfer_enqueued() const { return attempt_ && attempt_->queued; }

  // ----- live pre-copy migration (iterative, VM-live-migration style) ---
  //
  // Instead of freezing for the whole Table II snapshot, the caller ships
  // dirty chunks round by round while counter operations CONTINUE, then
  // freezes only for the final delta:
  //
  //   while (!report.converged(options)) report = migration_precopy_round(d);
  //   migration_finalize(d);
  //
  // Requires the live-transfer capability (epoch guard): finalize
  // invalidates every previously sealed buffer with ONE epoch-counter
  // increment and defers the per-counter hardware destroys to after the
  // destination has been released, so the freeze window no longer grows
  // with the number of active counters.

  /// Ships every Table II chunk dirtied since the last shipped round
  /// (round 0 ships all populated chunks) to `destination_address` via the
  /// local ME.  Mutations stay enabled throughout.  Switching destination
  /// mid-pre-copy restarts the attempt (fresh nonce, full re-ship).
  Result<PrecopyRoundReport> migration_precopy_round(
      const std::string& destination_address, MigrationPolicy policy = {});

  /// Freezes the library, fences persistence, epoch-invalidates the
  /// sealed-buffer lineage, persists the freeze flag, and ships just the
  /// chunks dirtied since the last round plus the MSK.  The destination ME
  /// assembles the authoritative snapshot from its staged rounds + this
  /// delta (verified against a chunk manifest).  Hardware counters are
  /// destroyed AFTER the destination accepted — they are unreachable once
  /// the epoch advanced, so the teardown no longer sits in the freeze
  /// window.  Works with zero prior rounds (pure stop-and-copy).
  MigrationStartResult migration_finalize_detailed(
      const std::string& destination_address, MigrationPolicy policy = {});
  Status migration_finalize(const std::string& destination_address,
                            MigrationPolicy policy = {});

  /// Asks the local ME for the state of this enclave's outgoing migration.
  Result<OutgoingState> query_migration_status();

  /// Asks the local ME for the fate of the CURRENT migration attempt
  /// (identified by its request nonce, whichever entry point drew it).
  /// This is how a caller — or the library itself — distinguishes "the ME
  /// never saw my request" from "the ME accepted it but the reply (or the
  /// ME process) died": the latter returns kPending/kCompleted from the
  /// ME's durable transfer queue.  kNone when no attempt exists.
  Result<OutgoingState> query_staged_attempt_status();

  // ----- Listing 2: interface for the application enclave -----

  Result<Bytes> seal_migratable_data(ByteView additional_mac_text,
                                     ByteView text_to_encrypt);
  Result<sgx::UnsealedData> unseal_migratable_data(ByteView sealed_blob);

  Result<CreatedMigratableCounter> create_migratable_counter();
  Status destroy_migratable_counter(uint32_t counter_id);
  Result<uint32_t> increment_migratable_counter(uint32_t counter_id);
  Result<uint32_t> read_migratable_counter(uint32_t counter_id);

  /// Fence for batching engines: on return every mutation so far is
  /// sealed and handed to the persist OCALL.  No-op under SyncPersist.
  /// Applications using WriteBehindPersist call this at operation-batch
  /// boundaries; the library itself forces it before migration/freeze
  /// events and before destroying a hardware counter.
  Status persist_flush();

  // ----- chaos drill plumbing (oracle self-tests only) -----
  /// FAULT-INJECTION DRILL: disables the anti-fork machinery of the
  /// pre-copy finalize path — the epoch is NOT invalidated and the
  /// hardware counters are NOT retired, so a stale pre-freeze sealed
  /// buffer restores into a usable second live instance (a fork).  Exists
  /// so the chaos fork oracle can be proven to catch the violation it
  /// guards against; never call outside such a drill.
  void chaos_disable_epoch_guard() { chaos_epoch_guard_disabled_ = true; }

  // ----- state inspection -----
  bool initialized() const { return initialized_; }
  bool frozen() const { return runtime_frozen_; }
  /// True when this library can run the iterative pre-copy protocol (the
  /// epoch guard exists — capability requested at construction AND the
  /// state was initialized/restored with the guard present).
  bool live_transfer_capable() const { return state_.epoch_active != 0; }
  /// Virtual time the enclave spent frozen during its last successful
  /// outgoing migration: freeze instant -> transfer accepted by the local
  /// ME.  Zero until a migration succeeded.
  Duration last_freeze_window() const { return last_freeze_window_; }
  /// Serialized migration payload bytes of the last successful outgoing
  /// migration (all pre-copy rounds + finalize, or the full snapshot).
  uint64_t last_transfer_bytes() const { return last_transfer_bytes_; }
  /// Pre-copy rounds shipped before the last successful finalize (0 for a
  /// full-snapshot migration or a pure stop-and-copy finalize).
  uint32_t last_precopy_rounds() const { return last_precopy_rounds_; }
  /// Virtual time a reserved (freeze-aware) attempt waited LIVE between
  /// the reserve and its slot going live (freeze+arm).  Zero for
  /// freeze-at-enqueue attempts — their whole queue wait is freeze time.
  Duration last_enqueue_wait() const { return last_enqueue_wait_; }
  /// Latest sealed persistent buffer (Table II) for the application to
  /// store.  Under a batching engine this may lag the in-memory state
  /// until the next commit or persist_flush().
  const Bytes& sealed_state() const { return sealed_state_; }
  size_t active_counters() const { return state_.active_count(); }
  const PersistenceEngine& persistence() const { return *engine_; }

 private:
  // ----- PersistSink (the engine calls back into us to commit) -----
  Status commit_state() override;
  Duration now() const override;
  obs::Observability* observability() const override;

  // ----- observability helpers -----
  /// The world's trace recorder when wired AND enabled; nullptr otherwise.
  obs::TraceRecorder* recorder() const;
  /// This enclave's machine address (the lane spans are attributed to).
  const std::string& lane() const;
  /// Ensures the attempt's root span ("migration", one per trace id) is
  /// open, binding `nonce` as the trace id of the root and of the open
  /// freeze span, if any.
  void trace_attempt_root(uint64_t nonce);
  /// Opens the freeze span at freeze_started_ (trace id bound later if
  /// the nonce does not exist yet).
  void trace_freeze_begin();
  /// Closes the freeze span where last_freeze_window_ is computed, so the
  /// trace-derived window equals the reported one BY CONSTRUCTION.
  void trace_freeze_end();
  /// Opens a protocol-step span (one numeric arg) under the attempt's
  /// root; 0 when tracing is off.
  uint64_t trace_step_begin(const char* name, uint64_t nonce, const char* key,
                            uint64_t value);
  /// Closes a step span tagged with its outcome (no-op for span 0).
  void trace_step_end(uint64_t span, const char* outcome);
  /// Closes the attempt's spans and root on the accepted verdict.
  void trace_attempt_done(uint64_t nonce, uint64_t payload_bytes);

  /// Reports one completed mutation to the engine.
  Status persist_after_mutation(MutationKind kind);
  /// Mutation that must be durable before returning (freeze flag, fresh
  /// counter UUIDs): report + fence, regardless of engine.
  Status persist_mutation_durable(MutationKind kind);

  /// The one outgoing migration attempt (paper §V-D: one per enclave).
  /// It is frozen once, identified by one request nonce, retried toward
  /// the same destination under that nonce, and re-keyed only when it is
  /// re-routed.
  struct Attempt {
    enum class Kind : uint8_t {
      kSnapshot,  // full snapshot: start, enqueue, or reserve + arm
      kPrecopy,   // dirty-chunk rounds, then a finalize
    };
    Kind kind = Kind::kSnapshot;

    // Identity, re-keyed by attempt_toward on a re-route.  The ME stores
    // the nonce durably with the retained transfer, which makes every
    // request exactly-once (re-sends are deduplicated) and resumable (a
    // nonce-scoped status query reveals whether a lost reply — or a
    // restarted ME — actually accepted the transfer).  A re-route draws
    // a FRESH nonce: a transfer that landed at the old destination must
    // never be mistaken for success toward the new one.  The policy is
    // kept so an internal re-enqueue (the ME forgot the nonce) re-ships
    // under the constraints the caller staged.
    uint64_t nonce = 0;
    std::string destination;
    MigrationPolicy policy;

    // Frozen payload: collected once at the freeze and re-shipped as is
    // after a re-route.  Counter values are unreadable once the counters
    // are destroyed (snapshot) or retired (pre-copy), so a retry can
    // only resend what was collected.
    std::optional<MigrationData> snapshot;  // kSnapshot
    bool finalize_frozen = false;  // kPrecopy: final delta collected
    std::vector<CounterChunk> final_chunks;

    // Pre-copy progress: what THIS destination already holds.  Before
    // the freeze a re-route starts over (the new destination holds
    // nothing); after it the merged set is part of the frozen payload,
    // and the finalize carries all of it to the new destination.
    std::array<uint64_t, kPrecopyChunkCount> shipped_generation{};
    std::map<uint32_t, CounterChunk> staged_chunks;  // every shipped chunk
    uint32_t rounds = 0;
    uint64_t round_bytes = 0;

    // Queue state: whether a queued request awaits its poll verdict, and
    // the payload bytes the accepted verdict reports (all rounds plus
    // the finalize, or the snapshot request).  A re-route supersedes the
    // queued request.
    bool queued = false;
    uint64_t payload_bytes = 0;

    bool frozen() const { return snapshot.has_value() || finalize_frozen; }
  };

  /// Reply of one LA exchange, checked against the type the entry point
  /// expects.
  struct MeReply {
    MigrationStartResult result;  // ok: `msg` has the expected type
    LibMsg msg;                   // the reply, when one arrived
    bool lost = false;  // transport failure: the ME may have processed it
  };

  Status ensure_me_channel();
  /// The checks a migrating entry point opens with, before it touches
  /// the attempt: initialized, not frozen (unless `resumes_frozen`: the
  /// frozen attempt itself is being resumed), and the local ME attested
  /// — an attest that must precede the destructive freeze.
  MigrationStartResult check_can_migrate(bool resumes_frozen);
  /// Aims the attempt at `destination`, creating it if needed.  The only
  /// place that draws an attempt nonce and aborts a superseded attempt:
  /// an attempt already aimed there is kept as is; otherwise the old
  /// destination's orphan (if any) is aborted and the attempt re-keyed
  /// under a fresh nonce, keeping its frozen payload.  Returns true when
  /// it re-keyed.
  bool attempt_toward(const std::string& destination, Attempt::Kind kind);
  /// The freeze prologue: fences batched mutations, freezes, opens the
  /// freeze span and runs `collect`.  A collect failure unwinds the
  /// freeze (nothing destructive happened yet) and names `step`.
  MigrationStartResult freeze_and_collect(
      const char* step, const std::function<Status()>& collect);
  /// Durably persists the freeze flag, once per library lifetime.
  MigrationStartResult persist_freeze();
  /// The destructive front half of a full-snapshot attempt: freeze,
  /// collect, aim the attempt, destroy counters, persist the freeze
  /// flag.  Idempotent across retries; on success the attempt holds the
  /// snapshot, nonce and destination to ship.
  MigrationStartResult stage_snapshot(const std::string& destination);
  /// Stages the snapshot toward `destination`, then sends it as a
  /// MigrateRequestPayload (kMigrateRequest, kMigrateEnqueue or
  /// kMigrateArm) through exchange(); records its size as payload_bytes.
  MeReply ship_snapshot(const std::string& destination,
                        MigrationPolicy policy, LibMsgType type,
                        LibMsgType expected, const char* step,
                        const char* refused);
  /// Sends one request of an entry point over the LA channel (re-attesting
  /// once if the ME lost the session) and maps the reply: a reply of type
  /// `expected` is ok; a transport failure names `step`; any other reply
  /// names `refused`, with the reply's status or else `fallback`.
  MeReply exchange(LibMsgType type, Bytes payload, LibMsgType expected,
                   Status fallback, const char* step, const char* refused);
  /// Lost-reply resume (§V-D): after a transport failure, asks the ME for
  /// the fate of the attempt's nonce.  A retained or completed transfer
  /// means the source side is done: finishes the attempt, returns true.
  bool resume_lost_reply();
  /// Best-effort proactive abort of a superseded attempt: tells the local
  /// ME that (nonce, old destination) was re-routed so the orphaned
  /// destination entry can be expired now instead of by the pull-based
  /// reconcile sweep.  Failures are ignored — the sweep remains the
  /// backstop.
  void notify_abort_stale(uint64_t nonce, const std::string& old_destination);
  /// Shared success tail of every outgoing path: freeze-window and
  /// payload metrics, the pre-copy teardown, the attempt cleared.
  void finish_outgoing();
  /// Fresh nonzero attempt nonce (one 8-byte RNG draw).
  uint64_t draw_attempt_nonce();
  /// kSlotLive landing of a reserved attempt: records the live queue
  /// wait, runs the destructive stage (freeze+collect+destroy+persist)
  /// and ships the armed payload to the parked TransferTask.
  MigrationStartResult arm_reserved_slot();
  /// Shared body of the two status queries (nonce 0 = per-identity).
  Result<OutgoingState> query_status_internal(uint64_t nonce);
  /// Sends one LibMsg over the LA channel and returns the reply.
  Result<LibMsg> me_exchange(const LibMsg& request);
  /// Like me_exchange, but re-runs local attestation once if the ME lost
  /// the session (e.g. the management VM restarted) and retries.
  Result<LibMsg> me_exchange_reattest(const LibMsg& request);
  /// Seals the internal buffer and (optionally) OCALLs it out.
  Status persist(bool invoke_callback);
  Status apply_incoming(const MigrationData& data);
  Result<MigrationData> collect_values();
  Status destroy_active_counters();
  Status check_operational() const;

  // ----- pre-copy internals -----
  /// Stamps the chunk containing `slot` with the next mutation generation
  /// (piggybacked on every Table II mutation; drives dirty-chunk rounds).
  void note_slot_dirty(size_t slot);
  /// Creates the epoch-guard hardware counter (live-transfer capability).
  Status create_epoch_guard();
  /// Restore-time rollback check: the hardware epoch counter must still
  /// hold the value this buffer was sealed under.
  Status check_epoch_guard() const;
  /// Collects every chunk with generation > the attempt's shipped
  /// generation; round 0 (`include_all_populated`) also collects clean
  /// chunks holding active counters (e.g. restored state whose
  /// generations start at zero).  Effective values come from the
  /// hardware-value cache where warm.
  Result<std::vector<CounterChunk>> collect_dirty_chunks(
      bool include_all_populated);
  /// Manifest of everything shipped so far (staged chunks, latest gens).
  std::vector<ChunkManifestEntry> staged_manifest() const;

  sgx::Enclave& host_;
  std::unique_ptr<PersistenceEngine> engine_;
  // Sealing key derived once per library lifetime (one EGETKEY) and
  // reused for every Table II re-seal; see sgx::SealContext.
  std::optional<sgx::SealContext> seal_ctx_;
  LibraryState state_;
  // In-memory cache of the hardware counter values (filled by create/
  // read/increment).  Lets the increment overflow check run without an
  // extra Platform Services round trip; safe because this library
  // instance is the counter's only user (the UUID nonce is sealed in the
  // library state).
  std::array<std::optional<uint32_t>, kMaxCounters> cached_hw_values_{};
  Bytes sealed_state_;
  PersistCallback persist_callback_;
  sgx::Measurement expected_me_mr_{};
  std::string me_address_;
  bool initialized_ = false;
  bool runtime_frozen_ = false;
  uint64_t la_session_id_ = 0;
  std::optional<net::SecureChannel> me_channel_;
  std::optional<Attempt> attempt_;
  // The destructive steps run once per library lifetime, whichever
  // attempt or re-route reaches them.  The hardware counters are
  // destroyed (full snapshot) or retired (pre-copy) once: a double
  // destroy against a recycled id would hit someone else's counter.
  bool counters_destroyed_ = false;
  // Set once the freeze flag has been durably persisted.  Kept separate
  // from counters_destroyed_ so a retry after a failed persist still
  // writes the flag (and a retry after a failed ME exchange never
  // re-destroys hardware counters).
  bool freeze_persisted_ = false;
  // One epoch increment per outgoing pre-copy migration: like the counter
  // destroys of the full-snapshot path, it must never run twice.
  bool epoch_invalidated_ = false;

  // ----- pre-copy state -----
  bool live_transfer_capable_ = false;
  // Dirty tracking: one monotonic generation per Table II chunk, stamped
  // from a global mutation counter on every create/destroy/increment and
  // restore-apply.  Always maintained (two array writes per mutation —
  // noise next to the seal + OCALL the same mutation already pays).
  uint64_t mutation_generation_ = 0;
  std::array<uint64_t, kPrecopyChunkCount> chunk_generation_{};
  // chaos_disable_epoch_guard() drill: skip the epoch invalidation AND
  // the deferred counter retire so the fork oracle has a real fork to
  // catch.
  bool chaos_epoch_guard_disabled_ = false;

  // ----- per-migration metrics (freeze-window accounting) -----
  Duration freeze_started_{};
  Duration last_freeze_window_{};
  uint64_t last_transfer_bytes_ = 0;
  uint32_t last_precopy_rounds_ = 0;
  // Freeze-aware accounting: when the reserve was issued, and how long
  // the attempt waited live before its slot went live.
  Duration enqueue_started_{};
  Duration last_enqueue_wait_{};

  // ----- trace spans of the in-flight attempt (0 = none/disabled) -----
  uint64_t root_span_ = 0;
  uint64_t freeze_span_ = 0;
  uint64_t enqueue_span_ = 0;
};

}  // namespace sgxmig::migration
