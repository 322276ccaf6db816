#include "migration/migration_library.h"

#include <limits>

#include "crypto/gcm.h"
#include "migration/migration_enclave.h"
#include "net/network.h"
#include "obs/observability.h"
#include "support/serde.h"

namespace sgxmig::migration {

namespace {
constexpr char kStateAad[] = "SGXMIG-ML-STATE";
}  // namespace

MigrationLibrary::MigrationLibrary(sgx::Enclave& host,
                                   std::unique_ptr<PersistenceEngine> engine,
                                   bool live_transfer_capable)
    : host_(host),
      engine_(engine ? std::move(engine)
                     : make_persistence_engine(PersistenceMode::kSync)),
      expected_me_mr_(MigrationEnclave::standard_image()->mr_enclave()),
      live_transfer_capable_(live_transfer_capable) {}

Status MigrationLibrary::check_operational() const {
  if (!initialized_) return Status::kNotInitialized;
  if (runtime_frozen_) return Status::kMigrationFrozen;
  return Status::kOk;
}

// ----- persistence -----

Status MigrationLibrary::persist(bool invoke_callback) {
  if (!seal_ctx_.has_value()) {
    seal_ctx_.emplace(host_.make_seal_context(sgx::KeyPolicy::kMrEnclave));
  }
  auto sealed = host_.seal_with(*seal_ctx_,
                                to_bytes(std::string_view(kStateAad)),
                                state_.serialize());
  if (!sealed.ok()) return sealed.status();
  sealed_state_ = std::move(sealed).value();
  if (invoke_callback && persist_callback_) {
    // OCALL to the untrusted application, which writes the buffer to disk.
    host_.platform().charge(host_.platform().costs().ocall);
    persist_callback_(sealed_state_);
  }
  return Status::kOk;
}

Status MigrationLibrary::commit_state() { return persist(/*invoke_callback=*/true); }

Duration MigrationLibrary::now() const {
  return host_.platform().clock().now();
}

// ----- observability -----

obs::Observability* MigrationLibrary::observability() const {
  return host_.platform().observability();
}

obs::TraceRecorder* MigrationLibrary::recorder() const {
  obs::Observability* obs = host_.platform().observability();
  return obs != nullptr && obs->enabled() ? &obs->trace : nullptr;
}

const std::string& MigrationLibrary::lane() const {
  return host_.platform().address();
}

void MigrationLibrary::trace_attempt_root(uint64_t nonce) {
  obs::TraceRecorder* rec = recorder();
  if (rec == nullptr) return;
  const obs::TraceSpan* root = rec->find_span(root_span_);
  if (root == nullptr || !root->open) {
    root_span_ = rec->begin_span("migration", lane());
    rec->span_arg(root_span_, "enclave", host_.image().name());
  }
  if (nonce == 0) return;
  rec->assign_trace(root_span_, nonce);
  if (freeze_span_ != 0) rec->assign_trace(freeze_span_, nonce);
}

void MigrationLibrary::trace_freeze_begin() {
  obs::TraceRecorder* rec = recorder();
  if (rec == nullptr) return;
  if (freeze_span_ != 0) {
    const obs::TraceSpan* span = rec->find_span(freeze_span_);
    if (span != nullptr && span->open) return;  // retry: freeze still open
  }
  trace_attempt_root(0);  // ensure a root exists to nest under
  freeze_span_ = rec->begin_span("freeze", lane(), 0, root_span_);
  rec->span_arg(freeze_span_, "enclave", host_.image().name());
}

void MigrationLibrary::trace_freeze_end() {
  obs::TraceRecorder* rec = recorder();
  if (rec != nullptr && freeze_span_ != 0) {
    rec->span_arg(freeze_span_, "window_ns",
                  static_cast<uint64_t>(last_freeze_window_.count()));
    rec->end_span(freeze_span_);
  }
  freeze_span_ = 0;
}

uint64_t MigrationLibrary::trace_step_begin(const char* name, uint64_t nonce,
                                           const char* key, uint64_t value) {
  obs::TraceRecorder* rec = recorder();
  if (rec == nullptr) return 0;
  const uint64_t span = rec->begin_span(name, lane(), nonce, root_span_);
  rec->span_arg(span, key, value);
  return span;
}

void MigrationLibrary::trace_step_end(uint64_t span, const char* outcome) {
  obs::TraceRecorder* rec = recorder();
  if (rec == nullptr || span == 0) return;
  rec->span_arg(span, "outcome", outcome);
  rec->end_span(span);
}

void MigrationLibrary::trace_attempt_done(uint64_t nonce,
                                          uint64_t payload_bytes) {
  obs::Observability* obs = observability();
  if (obs == nullptr || !obs->enabled()) {
    root_span_ = 0;
    freeze_span_ = 0;
    enqueue_span_ = 0;
    return;
  }
  obs::TraceRecorder& rec = obs->trace;
  if (enqueue_span_ != 0) {
    rec.end_span(enqueue_span_);
    enqueue_span_ = 0;
  }
  trace_freeze_end();  // normally already closed where the window landed
  if (root_span_ != 0) {
    rec.span_arg(root_span_, "bytes", payload_bytes);
    rec.end_span(root_span_);
    root_span_ = 0;
  }
  if (nonce != 0) rec.end_trace_root(nonce);
  rec.instant("migration.source_done", lane(), nonce,
              {{"enclave", host_.image().name()}});
  obs->metrics.add("migration.accepted");
  obs->metrics.observe("migration.freeze_window_ms",
                       to_seconds(last_freeze_window_) * 1e3);
  obs->metrics.observe("migration.transfer_bytes",
                       static_cast<double>(payload_bytes));
}

Status MigrationLibrary::persist_after_mutation(MutationKind kind) {
  return engine_->on_mutation(*this, kind);
}

Status MigrationLibrary::persist_mutation_durable(MutationKind kind) {
  const Status status = engine_->on_mutation(*this, kind);
  if (status != Status::kOk) return status;
  if (obs::Observability* obs = observability();
      obs != nullptr && obs->enabled()) {
    obs->metrics.add("persist.flush_fences");
  }
  return engine_->flush(*this);
}

Status MigrationLibrary::persist_flush() {
  if (!initialized_) return Status::kNotInitialized;
  return engine_->flush(*this);
}

// ----- initialization (paper Fig. 1 / §VI-B "Persistent data") -----

Status MigrationLibrary::migration_init(ByteView state_buffer,
                                        InitState init_state,
                                        const std::string& me_address) {
  if (initialized_) return Status::kInvalidState;
  me_address_ = me_address;

  switch (init_state) {
    case InitState::kNew: {
      state_ = LibraryState{};
      host_.platform().charge(host_.platform().costs().drbg_fixed);
      host_.rng().generate(state_.msk.data(), state_.msk.size());
      if (live_transfer_capable_) {
        const Status guard = create_epoch_guard();
        if (guard != Status::kOk) return guard;
      }
      // The fresh buffer is sealed and handed back via sealed_state();
      // there is nothing irrecoverable in it yet, so storing it is left
      // to the application (keeps init fast, Fig. 4).
      const Status status = persist(/*invoke_callback=*/false);
      if (status != Status::kOk) return status;
      initialized_ = true;
      return Status::kOk;
    }
    case InitState::kRestore: {
      auto unsealed = host_.unseal(state_buffer);
      if (!unsealed.ok()) return unsealed.status();
      if (to_string(unsealed.value().aad) != kStateAad) {
        return Status::kTampered;
      }
      auto state = LibraryState::deserialize(unsealed.value().plaintext);
      if (!state.ok()) return state.status();
      // Freeze flag check: if this enclave's state was migrated away, the
      // library refuses to operate (prevents the §III-B fork).
      if (state.value().frozen != 0) return Status::kMigrationFrozen;
      state_ = std::move(state).value();
      // Epoch guard check: a buffer sealed under an older epoch is a
      // rollback across a migration (the guard advanced at finalize) —
      // refuse exactly like a frozen buffer.
      const Status epoch = check_epoch_guard();
      if (epoch != Status::kOk) {
        state_ = LibraryState{};
        return epoch;
      }
      const Status status = persist(/*invoke_callback=*/false);
      if (status != Status::kOk) return status;
      initialized_ = true;
      return Status::kOk;
    }
    case InitState::kMigrate: {
      const Status channel_status = ensure_me_channel();
      if (channel_status != Status::kOk) return channel_status;
      LibMsg fetch;
      fetch.type = LibMsgType::kFetchIncoming;
      auto reply = me_exchange(fetch);
      if (!reply.ok()) return reply.status();
      if (reply.value().type != LibMsgType::kIncomingData) {
        return reply.value().status == Status::kOk ? Status::kUnexpected
                                                   : reply.value().status;
      }
      // Payload: the migration data plus the ME's delivery token — proof
      // of being the instance the sealed fetch reply reached, honored by
      // the confirm even if this library must re-attest in between — and
      // the attempt nonce, so the restore joins the source's trace tree.
      auto fetched = FetchReply::deserialize(reply.value().payload);
      if (!fetched.ok()) return fetched.status();
      const uint64_t request_nonce = fetched.value().request_nonce;
      uint64_t restore_span = 0;
      if (obs::TraceRecorder* rec = recorder()) {
        restore_span = rec->begin_span("restore", lane(), request_nonce);
        rec->span_arg(restore_span, "enclave", host_.image().name());
      }
      const Status apply_status = apply_incoming(fetched.value().data);
      if (apply_status != Status::kOk) {
        trace_step_end(restore_span, "apply-failed");
        return apply_status;
      }
      initialized_ = true;
      // Confirm so the source ME can delete its retained copy.  The
      // confirm must tolerate a lost reply: the ME may have processed it
      // (pending erased, DONE queued) while we saw a transport failure —
      // failing here would discard a fully restored instance.  One extra
      // attempt suffices: the retry either heals a dropped request, or
      // desyncs the channel (reply was lost after processing), which
      // me_exchange_reattest turns into a fresh session whose confirm the
      // ME answers idempotently from its confirmed-incoming history.
      LibMsg confirm;
      confirm.type = LibMsgType::kConfirmMigration;
      ConfirmPayload token;
      token.delivery_token = fetched.value().delivery_token;
      confirm.payload = token.serialize();
      auto ack = me_exchange_reattest(confirm);
      if (!ack.ok() || ack.value().type != LibMsgType::kConfirmAck) {
        ack = me_exchange_reattest(confirm);
      }
      if (!ack.ok()) {
        trace_step_end(restore_span, "confirm-failed");
        return ack.status();
      }
      if (ack.value().type != LibMsgType::kConfirmAck) {
        trace_step_end(restore_span, "confirm-failed");
        return Status::kUnexpected;
      }
      trace_step_end(restore_span, "ok");
      if (obs::Observability* obs = observability();
          obs != nullptr && obs->enabled()) {
        obs->trace.instant("migration.done", lane(), request_nonce,
                           {{"enclave", host_.image().name()}});
        if (request_nonce != 0) obs->trace.end_trace_root(request_nonce);
        obs->metrics.add("migration.restored");
      }
      return Status::kOk;
    }
  }
  return Status::kInvalidParameter;
}

Status MigrationLibrary::apply_incoming(const MigrationData& data) {
  state_ = LibraryState{};
  state_.msk = data.msk;
  for (size_t i = 0; i < kMaxCounters; ++i) {
    if (!data.counters_active[i]) continue;
    // Effective value of the source becomes the offset over a fresh
    // hardware counter starting at zero (§VI-B): constant-time per
    // counter, regardless of its value.
    auto created = host_.counter_create();
    if (!created.ok()) return created.status();
    state_.counters_active[i] = true;
    state_.counter_uuids[i] = created.value().uuid;
    state_.counter_offsets[i] = data.counter_values[i];
    cached_hw_values_[i] = created.value().value;
    note_slot_dirty(i);
  }
  if (live_transfer_capable_) {
    const Status guard = create_epoch_guard();
    if (guard != Status::kOk) return guard;
  }
  // UUIDs of the fresh counters are irrecoverable: force durability here
  // regardless of the configured engine.
  return persist_mutation_durable(MutationKind::kRestoreApply);
}

// ----- epoch guard + dirty tracking (live-transfer capability) -----

void MigrationLibrary::note_slot_dirty(size_t slot) {
  chunk_generation_[slot / kPrecopyChunkSlots] = ++mutation_generation_;
}

Status MigrationLibrary::create_epoch_guard() {
  auto created = host_.counter_create();
  if (!created.ok()) return created.status();
  state_.epoch_active = 1;
  state_.epoch_uuid = created.value().uuid;
  state_.epoch_value = created.value().value;
  return Status::kOk;
}

Status MigrationLibrary::check_epoch_guard() const {
  if (state_.epoch_active == 0) return Status::kOk;  // legacy lineage
  auto value = host_.counter_read(state_.epoch_uuid);
  // A destroyed guard means the enclave completed a full-snapshot
  // migration away from this machine: same refusal as a stale epoch.
  if (value.status() == Status::kCounterNotFound) {
    return Status::kMigrationFrozen;
  }
  if (!value.ok()) return value.status();
  if (value.value() != state_.epoch_value) return Status::kMigrationFrozen;
  return Status::kOk;
}

// ----- migratable sealing (§VI-B "Sealing") -----

Result<Bytes> MigrationLibrary::seal_migratable_data(
    ByteView additional_mac_text, ByteView text_to_encrypt) {
  const Status op = check_operational();
  if (op != Status::kOk) return op;
  // No EGETKEY here — the MSK is already in enclave memory, which is why
  // migratable sealing is marginally FASTER than standard sealing (Fig. 4).
  host_.charge_gcm(text_to_encrypt.size() + additional_mac_text.size());
  Bytes iv(crypto::kGcmIvSize);
  host_.rng().generate(iv.data(), iv.size());
  auto ct = crypto::gcm_encrypt(
      ByteView(state_.msk.data(), state_.msk.size()), iv, additional_mac_text,
      text_to_encrypt);
  MskSealedBlob blob;
  blob.iv = ct.iv;
  blob.tag = ct.tag;
  blob.aad.assign(additional_mac_text.begin(), additional_mac_text.end());
  blob.ciphertext = std::move(ct.ciphertext);
  return blob.serialize();
}

Result<sgx::UnsealedData> MigrationLibrary::unseal_migratable_data(
    ByteView sealed_blob) {
  const Status op = check_operational();
  if (op != Status::kOk) return op;
  auto blob = MskSealedBlob::deserialize(sealed_blob);
  if (!blob.ok()) return blob.status();
  const MskSealedBlob& b = blob.value();
  host_.charge_gcm(b.ciphertext.size() + b.aad.size());
  auto plaintext = crypto::gcm_decrypt(
      ByteView(state_.msk.data(), state_.msk.size()),
      ByteView(b.iv.data(), b.iv.size()), b.aad, b.ciphertext,
      ByteView(b.tag.data(), b.tag.size()));
  if (!plaintext.ok()) return plaintext.status();
  sgx::UnsealedData out;
  out.plaintext = std::move(plaintext).value();
  out.aad = std::move(blob).value().aad;
  return out;
}

// ----- migratable counters (§VI-B "Monotonic counters") -----

Result<CreatedMigratableCounter> MigrationLibrary::create_migratable_counter() {
  const Status op = check_operational();
  if (op != Status::kOk) return op;
  const size_t slot = state_.free_slot();
  if (slot == kMaxCounters) return Status::kCounterQuotaExceeded;
  auto created = host_.counter_create();
  if (!created.ok()) return created.status();
  state_.counters_active[slot] = true;
  state_.counter_uuids[slot] = created.value().uuid;
  state_.counter_offsets[slot] = 0;
  cached_hw_values_[slot] = created.value().value;
  note_slot_dirty(slot);
  // Batching engines may defer this commit: a crash in the window leaks
  // the hardware counter (the restored state simply lacks the slot) but
  // never corrupts the UUID table.
  const Status status = persist_after_mutation(MutationKind::kCounterCreate);
  if (status != Status::kOk) return status;
  CreatedMigratableCounter out;
  out.counter_id = static_cast<uint32_t>(slot);
  out.value = created.value().value;  // 0 + offset 0
  return out;
}

Status MigrationLibrary::destroy_migratable_counter(uint32_t counter_id) {
  const Status op = check_operational();
  if (op != Status::kOk) return op;
  if (counter_id >= kMaxCounters || !state_.counters_active[counter_id]) {
    return Status::kCounterNotFound;
  }
  // Fence before the irreversible hardware destroy: any batched mutations
  // must be durable first, or a crash right after the destroy would
  // restore a Table II that references live state through a dead counter.
  const Status fence = engine_->flush(*this);
  if (fence != Status::kOk) return fence;
  const Status status = host_.counter_destroy(state_.counter_uuids[counter_id]);
  // kCounterNotFound: the hardware counter is already gone (crash between
  // a destroy and its persist) — clearing the orphaned slot IS the
  // recovery, so fall through and persist it.
  if (status != Status::kOk && status != Status::kCounterNotFound) {
    return status;
  }
  state_.counters_active[counter_id] = false;
  state_.counter_uuids[counter_id] = {};
  state_.counter_offsets[counter_id] = 0;
  cached_hw_values_[counter_id].reset();
  note_slot_dirty(counter_id);
  // The destroy record must be durable before returning: a lazily
  // batched record would leave the stored Table II referencing the dead
  // counter for an unbounded window, wedging collect_values() on any
  // later migration.
  return persist_mutation_durable(MutationKind::kCounterDestroy);
}

Result<uint32_t> MigrationLibrary::increment_migratable_counter(
    uint32_t counter_id) {
  const Status op = check_operational();
  if (op != Status::kOk) return op;
  if (counter_id >= kMaxCounters || !state_.counters_active[counter_id]) {
    return Status::kCounterNotFound;
  }
  // Overflow check: the offset plus the post-increment hardware value must
  // stay within uint32 (§VI-B).  Uses the cached hardware value when
  // available; after a restore the first increment refreshes the cache
  // with one read.
  if (!cached_hw_values_[counter_id].has_value()) {
    auto current = host_.counter_read(state_.counter_uuids[counter_id]);
    if (!current.ok()) return current.status();
    cached_hw_values_[counter_id] = current.value();
  }
  const uint64_t next_effective =
      static_cast<uint64_t>(state_.counter_offsets[counter_id]) +
      static_cast<uint64_t>(*cached_hw_values_[counter_id]) + 1;
  if (next_effective > std::numeric_limits<uint32_t>::max()) {
    return Status::kCounterOverflow;
  }
  auto incremented = host_.counter_increment(state_.counter_uuids[counter_id]);
  if (!incremented.ok()) return incremented.status();
  cached_hw_values_[counter_id] = incremented.value();
  note_slot_dirty(counter_id);
  const Status status = persist_after_mutation(MutationKind::kCounterIncrement);
  if (status != Status::kOk) return status;
  return state_.counter_offsets[counter_id] + incremented.value();
}

Result<uint32_t> MigrationLibrary::read_migratable_counter(uint32_t counter_id) {
  const Status op = check_operational();
  if (op != Status::kOk) return op;
  if (counter_id >= kMaxCounters || !state_.counters_active[counter_id]) {
    return Status::kCounterNotFound;
  }
  auto value = host_.counter_read(state_.counter_uuids[counter_id]);
  if (!value.ok()) return value.status();
  cached_hw_values_[counter_id] = value.value();
  const uint64_t effective =
      static_cast<uint64_t>(state_.counter_offsets[counter_id]) +
      static_cast<uint64_t>(value.value());
  if (effective > std::numeric_limits<uint32_t>::max()) {
    return Status::kCounterOverflow;
  }
  return static_cast<uint32_t>(effective);
}

// ----- ME communication -----

Status MigrationLibrary::ensure_me_channel() {
  if (me_channel_.has_value()) return Status::kOk;
  auto* net = host_.platform().network();
  if (net == nullptr) return Status::kNetworkUnreachable;
  if (me_address_.empty()) return Status::kInvalidParameter;

  const Bytes id_bytes = host_.rng().bytes(8);
  la_session_id_ = load_be64(id_bytes.data());

  sgx::DhSession session(host_.platform(), host_.identity(),
                         sgx::DhSession::Role::kInitiator);
  // msg1
  MeRequest start;
  start.type = MeMsgType::kLaStart;
  start.id = la_session_id_;
  auto raw1 = net->rpc(me_address_ + "/me", start.serialize());
  if (!raw1.ok()) return raw1.status();
  auto resp1 = MeResponse::deserialize(raw1.value());
  if (!resp1.ok()) return Status::kTampered;
  if (resp1.value().status != Status::kOk) return resp1.value().status;
  auto msg1 = sgx::DhMsg1::deserialize(resp1.value().payload);
  if (!msg1.ok()) return Status::kTampered;
  // msg2
  auto msg2 = session.handle_msg1(msg1.value());
  if (!msg2.ok()) return msg2.status();
  MeRequest m2;
  m2.type = MeMsgType::kLaMsg2;
  m2.id = la_session_id_;
  m2.payload = msg2.value().serialize();
  auto raw3 = net->rpc(me_address_ + "/me", m2.serialize());
  if (!raw3.ok()) return raw3.status();
  auto resp3 = MeResponse::deserialize(raw3.value());
  if (!resp3.ok()) return Status::kTampered;
  if (resp3.value().status != Status::kOk) return resp3.value().status;
  auto msg3 = sgx::DhMsg3::deserialize(resp3.value().payload);
  if (!msg3.ok()) return Status::kTampered;
  const Status status = session.handle_msg3(msg3.value());
  if (status != Status::kOk) return status;

  // Verify we attested the genuine Migration Enclave (paper §V-C: the
  // library "performs local attestation of the Migration Enclave").
  if (!(session.peer_identity().mr_enclave == expected_me_mr_)) {
    return Status::kIdentityMismatch;
  }
  me_channel_.emplace(session.session_key(),
                      net::SecureChannel::Role::kInitiator);
  return Status::kOk;
}

Result<LibMsg> MigrationLibrary::me_exchange(const LibMsg& request) {
  auto* net = host_.platform().network();
  if (net == nullptr || !me_channel_.has_value()) {
    return Status::kInvalidState;
  }
  MeRequest req;
  req.type = MeMsgType::kLaRecord;
  req.id = la_session_id_;
  req.payload = me_channel_->seal_record(request.serialize());
  auto raw = net->rpc(me_address_ + "/me", req.serialize());
  if (!raw.ok()) return raw.status();
  auto resp = MeResponse::deserialize(raw.value());
  if (!resp.ok()) return Status::kTampered;
  if (resp.value().status != Status::kOk) return resp.value().status;
  auto record = me_channel_->open_record(resp.value().payload);
  if (!record.ok()) return record.status();
  auto msg = LibMsg::deserialize(record.value());
  if (!msg.ok()) return Status::kTampered;
  return msg;
}

Result<LibMsg> MigrationLibrary::me_exchange_reattest(const LibMsg& request) {
  auto reply = me_exchange(request);
  const Status status = reply.ok() ? Status::kOk : reply.status();
  if (status == Status::kInvalidState || status == Status::kChannelError ||
      status == Status::kReplayDetected || status == Status::kMacMismatch) {
    // The ME lost our LA session (management VM restart): attest afresh
    // and retry once.
    me_channel_.reset();
    const Status channel_status = ensure_me_channel();
    if (channel_status != Status::kOk) return channel_status;
    return me_exchange(request);
  }
  return reply;
}

// ----- outgoing migration (paper §V-D) -----

Result<MigrationData> MigrationLibrary::collect_values() {
  MigrationData data;
  data.msk = state_.msk;
  for (size_t i = 0; i < kMaxCounters; ++i) {
    if (!state_.counters_active[i]) continue;
    auto value = host_.counter_read(state_.counter_uuids[i]);
    if (!value.ok()) return value.status();
    const uint64_t effective =
        static_cast<uint64_t>(state_.counter_offsets[i]) +
        static_cast<uint64_t>(value.value());
    if (effective > std::numeric_limits<uint32_t>::max()) {
      return Status::kCounterOverflow;
    }
    data.counters_active[i] = true;
    data.counter_values[i] = static_cast<uint32_t>(effective);
  }
  return data;
}

Status MigrationLibrary::destroy_active_counters() {
  for (size_t i = 0; i < kMaxCounters; ++i) {
    if (!state_.counters_active[i]) continue;
    const Status status = host_.counter_destroy(state_.counter_uuids[i]);
    // kCounterNotFound on a retry pass means this one is already gone.
    if (status != Status::kOk && status != Status::kCounterNotFound) {
      return status;
    }
  }
  // The epoch guard goes with them: a rolled-back buffer then fails its
  // epoch read with kCounterNotFound and refuses to operate.
  if (state_.epoch_active != 0) {
    const Status status = host_.counter_destroy(state_.epoch_uuid);
    if (status != Status::kOk && status != Status::kCounterNotFound) {
      return status;
    }
  }
  return Status::kOk;
}

const char* migration_failure_class_name(MigrationFailureClass cls) {
  switch (cls) {
    case MigrationFailureClass::kNone: return "none";
    case MigrationFailureClass::kRetryableNetwork: return "retryable-network";
    case MigrationFailureClass::kRetryableBusy: return "retryable-busy";
    case MigrationFailureClass::kFatalPolicy: return "fatal-policy";
    case MigrationFailureClass::kFatalState: return "fatal-state";
    case MigrationFailureClass::kFatalInternal: return "fatal-internal";
  }
  return "unknown";
}

bool migration_failure_is_retryable(MigrationFailureClass cls) {
  return cls == MigrationFailureClass::kRetryableNetwork ||
         cls == MigrationFailureClass::kRetryableBusy;
}

MigrationFailureClass classify_migration_failure(Status status) {
  switch (status) {
    case Status::kOk:
      return MigrationFailureClass::kNone;
    // Transport loss or in-flight corruption: the paper's threat model
    // concedes availability to a network adversary, so these clear up when
    // the interference stops — retry.
    case Status::kNetworkUnreachable:
    case Status::kChannelError:
    case Status::kReplayDetected:
    case Status::kMacMismatch:
    case Status::kTampered:
      return MigrationFailureClass::kRetryableNetwork;
    // A service (PSE proxy, ME) exists but cannot take the work right now;
    // kAlreadyExists is the destination ME refusing a second concurrent
    // migration for the same MRENCLAVE (§V-D: one pending per identity).
    case Status::kServiceUnavailable:
    case Status::kMigrationInProgress:
    case Status::kAlreadyExists:
      return MigrationFailureClass::kRetryableBusy;
    case Status::kPolicyViolation:
      return MigrationFailureClass::kFatalPolicy;
    case Status::kMigrationFrozen:
    case Status::kNotInitialized:
    case Status::kInvalidState:
    case Status::kInvalidParameter:
      return MigrationFailureClass::kFatalState;
    default:
      return MigrationFailureClass::kFatalInternal;
  }
}

MigrationStartResult MigrationStartResult::pending(std::string message) {
  MigrationStartResult result;
  result.status = Status::kMigrationInProgress;
  result.message = std::move(message);
  return result;
}

namespace {
MigrationStartResult start_failure(Status status, const char* step) {
  MigrationStartResult result;
  result.status = status;
  result.failure_class = classify_migration_failure(status);
  result.message =
      std::string(step) + ": " + std::string(status_name(status));
  return result;
}
}  // namespace

// ----- the attempt record -----

MigrationStartResult MigrationLibrary::check_can_migrate(bool resumes_frozen) {
  if (!initialized_) {
    return start_failure(Status::kNotInitialized, "library init check");
  }
  if (runtime_frozen_ && !resumes_frozen) {
    // Already migrated away, or frozen by the other protocol's attempt.
    return start_failure(Status::kMigrationFrozen, "freeze check");
  }
  const Status channel_status = ensure_me_channel();
  if (channel_status != Status::kOk) {
    return start_failure(channel_status, "local ME attestation");
  }
  return MigrationStartResult{};
}

bool MigrationLibrary::attempt_toward(const std::string& destination,
                                      Attempt::Kind kind) {
  if (attempt_ && attempt_->kind == kind &&
      attempt_->destination == destination) {
    return false;
  }
  if (attempt_ && attempt_->destination != destination) {
    notify_abort_stale(attempt_->nonce, attempt_->destination);
  }
  if (!attempt_ || attempt_->kind != kind || !attempt_->frozen()) {
    attempt_.emplace();
    attempt_->kind = kind;
  }
  attempt_->nonce = draw_attempt_nonce();
  attempt_->destination = destination;
  attempt_->queued = false;  // a queued request is superseded
  return true;
}

MigrationStartResult MigrationLibrary::freeze_and_collect(
    const char* step, const std::function<Status()>& collect) {
  // Fence any batched mutations before the freeze event: the buffer the
  // application stored must reflect every completed operation before
  // the library stops accepting them (Table II invariant under
  // GroupCommit/WriteBehind engines).
  const Status fence = engine_->flush(*this);
  if (fence != Status::kOk) {
    return start_failure(fence, "pre-freeze persistence fence");
  }
  if (obs::Observability* obs = observability();
      obs != nullptr && obs->enabled()) {
    obs->metrics.add("persist.flush_fences");
  }
  // Freeze first: no further operations may mutate persistent state
  // while (or after) the migration is in flight (§V-A step 2).
  freeze_started_ = now();
  runtime_frozen_ = true;
  trace_freeze_begin();
  const Status collected = collect();
  if (collected == Status::kOk) return MigrationStartResult{};
  // Nothing destructive happened yet: the enclave may resume normal
  // operation and retry the migration later.
  runtime_frozen_ = false;
  trace_step_end(freeze_span_, "collect-failed");
  freeze_span_ = 0;
  return start_failure(collected, step);
}

MigrationStartResult MigrationLibrary::persist_freeze() {
  if (freeze_persisted_) return MigrationStartResult{};
  // Persist the freeze flag so a restarted instance refuses to operate
  // (§VI-B, Table II).  Durable regardless of engine, and guarded
  // separately from counters_destroyed_: if this persist fails, a retry
  // must redo it without re-destroying counters.
  state_.frozen = 1;
  const Status status = persist_mutation_durable(MutationKind::kFreeze);
  if (status != Status::kOk) {
    return start_failure(status, "persisting freeze flag");
  }
  freeze_persisted_ = true;
  return MigrationStartResult{};
}

MigrationLibrary::MeReply MigrationLibrary::exchange(
    LibMsgType type, Bytes payload, LibMsgType expected, Status fallback,
    const char* step, const char* refused) {
  LibMsg request;
  request.type = type;
  request.payload = std::move(payload);
  auto reply = me_exchange_reattest(request);
  MeReply out;
  if (!reply.ok()) {
    out.lost = true;
    out.result = start_failure(reply.status(), step);
    return out;
  }
  out.msg = std::move(reply).value();
  if (out.msg.type != expected) {
    out.result = start_failure(
        out.msg.status != Status::kOk ? out.msg.status : fallback, refused);
  }
  return out;
}

bool MigrationLibrary::resume_lost_reply() {
  // An exchange that died mid-flight — the reply dropped by the network,
  // or the ME restarting between accepting the request and answering —
  // looks like a failure even though the transfer may already sit,
  // durably retained, in the ME's queue.  A well-formed refusal is
  // DEFINITIVE (the retained path always answers with an accept, dedup'd
  // re-sends included), so only transport failures are worth this extra
  // round trip.
  auto fate = query_status_internal(attempt_->nonce);
  if (!fate.ok() || (fate.value() != OutgoingState::kPending &&
                     fate.value() != OutgoingState::kCompleted)) {
    return false;
  }
  finish_outgoing();
  return true;
}

void MigrationLibrary::finish_outgoing() {
  const Attempt attempt = std::move(*attempt_);
  attempt_.reset();
  const bool precopy = attempt.kind == Attempt::Kind::kPrecopy;
  last_freeze_window_ = now() - freeze_started_;
  trace_freeze_end();
  last_transfer_bytes_ = attempt.payload_bytes;
  last_precopy_rounds_ = precopy ? attempt.rounds : 0;
  // Deferred pre-copy teardown, OUTSIDE the freeze window: the epoch
  // increment already made every sealed buffer unusable, so these
  // hardware counters are unreachable garbage — retire them all in one
  // logical op (a failure leaks quota on a machine this enclave just
  // left, never state).  Physical slot reclaim is the platform's
  // background sweep.  The epoch-guard drill skips it like the increment.
  if (precopy && !counters_destroyed_ && !chaos_epoch_guard_disabled_) {
    (void)host_.counter_retire_all();
    counters_destroyed_ = true;
  }
  trace_attempt_done(attempt.nonce, attempt.payload_bytes);
}

uint64_t MigrationLibrary::draw_attempt_nonce() {
  const Bytes nonce_bytes = host_.rng().bytes(8);
  const uint64_t nonce = load_be64(nonce_bytes.data());
  return nonce == 0 ? 1 : nonce;
}

void MigrationLibrary::notify_abort_stale(uint64_t nonce,
                                          const std::string& old_destination) {
  if (nonce == 0 || old_destination.empty()) return;
  if (ensure_me_channel() != Status::kOk) return;
  AbortStalePayload payload;
  payload.request_nonce = nonce;
  payload.destination_address = old_destination;
  LibMsg request;
  request.type = LibMsgType::kAbortStale;
  request.payload = payload.serialize();
  // Best-effort: a failed abort merely leaves the orphan for the
  // pull-based reconcile sweep, the pre-abort status quo.
  (void)me_exchange_reattest(request);
}

// ----- full-snapshot migration (blocking, queued, freeze-aware) -----

Status MigrationLibrary::migration_start(
    const std::string& destination_address, MigrationPolicy policy) {
  return migration_start_detailed(destination_address, std::move(policy))
      .status;
}

MigrationStartResult MigrationLibrary::stage_snapshot(
    const std::string& destination) {
  const bool frozen = attempt_ && attempt_->snapshot.has_value();
  const MigrationStartResult ready = check_can_migrate(frozen);
  if (!ready.ok()) return ready;
  std::optional<MigrationData> collected;
  if (!frozen) {
    const MigrationStartResult froze =
        freeze_and_collect("collecting counter values", [&] {
          auto values = collect_values();
          if (values.ok()) collected = std::move(values).value();
          return values.status();
        });
    if (!froze.ok()) return froze;
  }
  // A half-done pre-copy is superseded by the snapshot (aborted if it was
  // aimed elsewhere); a reserved attempt keeps the nonce it queued under.
  attempt_toward(destination, Attempt::Kind::kSnapshot);
  if (collected) attempt_->snapshot = std::move(collected);
  trace_attempt_root(attempt_->nonce);
  if (!counters_destroyed_) {
    // Destroy the hardware counters BEFORE any data leaves the machine
    // (§VI-B): whatever happens later, the source's counters are gone, so
    // stale persistent state cannot be replayed into a working fork.  If
    // this pass fails half-way the library stays frozen and a retry
    // resumes it (already-destroyed counters report kCounterNotFound).
    const Status destroyed = destroy_active_counters();
    if (destroyed != Status::kOk) {
      return start_failure(destroyed, "destroying source counters");
    }
    counters_destroyed_ = true;
  }
  return persist_freeze();
}

MigrationLibrary::MeReply MigrationLibrary::ship_snapshot(
    const std::string& destination, MigrationPolicy policy, LibMsgType type,
    LibMsgType expected, const char* step, const char* refused) {
  MeReply staged;
  staged.result = stage_snapshot(destination);
  if (!staged.result.ok()) return staged;
  attempt_->policy = std::move(policy);
  MigrateRequestPayload payload;
  payload.destination_address = attempt_->destination;
  payload.request_nonce = attempt_->nonce;
  payload.policy = attempt_->policy;
  payload.data = *attempt_->snapshot;
  Bytes request = payload.serialize();
  attempt_->payload_bytes = request.size();
  return exchange(type, std::move(request), expected,
                  Status::kMigrationAborted, step, refused);
}

MigrationStartResult MigrationLibrary::migration_start_detailed(
    const std::string& destination_address, MigrationPolicy policy) {
  const MeReply reply = ship_snapshot(
      destination_address, std::move(policy), LibMsgType::kMigrateRequest,
      LibMsgType::kMigrateAccepted, "ME exchange",
      "destination rejected by source ME protocol");
  if (reply.lost && resume_lost_reply()) return MigrationStartResult{};
  // On failure the frozen snapshot stays staged: the application may
  // retry, possibly with a different destination (§V-D error handling).
  if (!reply.result.ok()) return reply.result;
  finish_outgoing();
  return MigrationStartResult{};
}

MigrationStartResult MigrationLibrary::migration_enqueue_detailed(
    const std::string& destination_address, MigrationPolicy policy) {
  // A lost enqueue reply leaves the task queued or not; a classified
  // transport failure lets the caller's retry machinery re-drive us.
  const MeReply reply = ship_snapshot(
      destination_address, std::move(policy), LibMsgType::kMigrateEnqueue,
      LibMsgType::kMigrateQueued, "ME enqueue exchange",
      "ME refused to queue the transfer");
  if (!reply.result.ok()) return reply.result;
  attempt_->queued = true;
  if (obs::TraceRecorder* rec = recorder()) {
    rec->instant("migration.queued", lane(), attempt_->nonce,
                 {{"destination", destination_address}});
  }
  return MigrationStartResult{};
}

MigrationStartResult MigrationLibrary::migration_reserve_detailed(
    const std::string& destination_address, MigrationPolicy policy) {
  if (attempt_ && attempt_->snapshot.has_value()) {
    // A previous attempt already froze and collected: nothing left to
    // defer, so queue the armed snapshot directly (retries and re-routes
    // after a post-freeze failure land here).
    return migration_enqueue_detailed(destination_address, std::move(policy));
  }
  const MigrationStartResult ready = check_can_migrate(false);
  if (!ready.ok()) return ready;
  // The attempt is aimed (and its nonce drawn) WITHOUT freezing; the
  // later freeze+arm reuses it.
  attempt_toward(destination_address, Attempt::Kind::kSnapshot);
  attempt_->policy = policy;
  MigrateReservePayload payload;
  payload.destination_address = destination_address;
  payload.request_nonce = attempt_->nonce;
  payload.policy = std::move(policy);
  // Nothing destructive happens here (no freeze, no destroys): a failure
  // lets the caller's retry machinery re-drive us.
  const MeReply reply =
      exchange(LibMsgType::kMigrateReserve, payload.serialize(),
               LibMsgType::kMigrateQueued, Status::kMigrationAborted,
               "ME reserve exchange", "ME refused to reserve the transfer");
  if (!reply.result.ok()) return reply.result;
  attempt_->queued = true;
  enqueue_started_ = now();
  last_enqueue_wait_ = Duration{};
  trace_attempt_root(attempt_->nonce);
  if (obs::TraceRecorder* rec = recorder()) {
    if (enqueue_span_ != 0) rec->end_span(enqueue_span_);
    enqueue_span_ =
        rec->begin_span("enqueue_wait", lane(), attempt_->nonce, root_span_);
    rec->span_arg(enqueue_span_, "destination", destination_address);
  }
  return MigrationStartResult{};
}

MigrationStartResult MigrationLibrary::arm_reserved_slot() {
  if (!attempt_->snapshot.has_value()) {
    // First arm of this attempt: the live queue wait ends here — the
    // freeze clock starts inside stage_snapshot.
    last_enqueue_wait_ = now() - enqueue_started_;
    if (obs::TraceRecorder* rec = recorder();
        rec != nullptr && enqueue_span_ != 0) {
      rec->span_arg(enqueue_span_, "wait_ns",
                    static_cast<uint64_t>(last_enqueue_wait_.count()));
      rec->end_span(enqueue_span_);
      enqueue_span_ = 0;
    }
  }
  // Copies: ship_snapshot must not be handed references into the attempt
  // it updates.  The attempt stays queued: the ME still tracks the
  // reserved task.  A lost arm reply leaves the parked task's payload
  // unknown; the next poll disambiguates — a re-observed kSlotLive
  // re-arms idempotently, kInFlight/kAccepted proceed normally.
  const std::string destination = attempt_->destination;
  const MeReply reply = ship_snapshot(
      destination, attempt_->policy, LibMsgType::kMigrateArm,
      LibMsgType::kArmAck, "ME arm exchange", "ME refused the armed payload");
  if (!reply.result.ok()) return reply.result;
  return MigrationStartResult::pending("armed; transfer in flight");
}

MigrationStartResult MigrationLibrary::migration_poll_transfer() {
  if (initialized_ && !transfer_enqueued()) {
    return start_failure(Status::kNoPendingMigration,
                         "no queued transfer to poll");
  }
  // Polling is how a frozen attempt learns its fate.
  const MigrationStartResult ready = check_can_migrate(/*resumes_frozen=*/true);
  if (!ready.ok()) return ready;
  PollTransferPayload query;
  query.request_nonce = attempt_->nonce;
  const MeReply reply =
      exchange(LibMsgType::kPollTransfer, query.serialize(),
               LibMsgType::kTransferProgress, Status::kUnexpected,
               "ME poll exchange", "ME poll reply");
  // A lost poll reply must not be mistaken for a lost transfer.
  if (reply.lost && resume_lost_reply()) return MigrationStartResult{};
  if (!reply.result.ok()) return reply.result;
  auto progress = TransferProgressPayload::deserialize(reply.msg.payload);
  if (!progress.ok()) {
    return start_failure(progress.status(), "ME poll reply");
  }
  switch (progress.value().progress) {
    case TransferProgress::kAccepted:
      finish_outgoing();
      return MigrationStartResult{};
    case TransferProgress::kSlotLive:
      // The ME attested the destination and parked the slot: NOW run the
      // destructive freeze+collect and arm the payload.
      return arm_reserved_slot();
    case TransferProgress::kInFlight:
      return MigrationStartResult::pending("transfer in flight");
    case TransferProgress::kFailed:
      // Terminal for THIS attempt; the staged data stays for a retry or
      // re-route, exactly like a blocking-start failure.
      return start_failure(progress.value().failure, "pipelined ME transfer");
    case TransferProgress::kNone:
      break;
  }
  // The ME does not know the nonce (it restarted before the task was
  // queued, or lost its storage).
  attempt_->queued = false;
  if (attempt_->kind == Attempt::Kind::kPrecopy) {
    // A lost queued finalize (restart drops the memory-only staged
    // record, or the ship budget ran out) surfaces as a retryable
    // failure: the caller re-drives migration_finalize_detailed, which
    // the ME dedups by nonce if the record actually landed.
    return start_failure(Status::kServiceUnavailable,
                         "ME lost the queued finalize");
  }
  // Re-reserve — which re-enqueues the snapshot if this attempt already
  // froze.  Copies: the callee re-aims the attempt.
  const std::string destination = attempt_->destination;
  const MigrationStartResult requeued =
      migration_reserve_detailed(destination, attempt_->policy);
  if (!requeued.ok()) return requeued;
  return MigrationStartResult::pending("transfer re-queued");
}

// ----- live pre-copy migration (iterative rounds + finalize) -----

Result<std::vector<CounterChunk>> MigrationLibrary::collect_dirty_chunks(
    bool include_all_populated) {
  std::vector<CounterChunk> out;
  for (size_t c = 0; c < kPrecopyChunkCount; ++c) {
    bool collect = chunk_generation_[c] > attempt_->shipped_generation[c];
    if (!collect && include_all_populated) {
      for (size_t s = 0; s < kPrecopyChunkSlots && !collect; ++s) {
        collect = state_.counters_active[c * kPrecopyChunkSlots + s];
      }
    }
    if (!collect) continue;
    CounterChunk chunk;
    chunk.index = static_cast<uint32_t>(c);
    chunk.generation = chunk_generation_[c];
    for (size_t s = 0; s < kPrecopyChunkSlots; ++s) {
      const size_t slot = c * kPrecopyChunkSlots + s;
      if (!state_.counters_active[slot]) continue;
      chunk.active[s] = true;
      // Effective value from the hardware-value cache when warm (this
      // library is the counter's only user, so the cache is exact);
      // otherwise one read refills it.  This is why pre-copy rounds do
      // not pay one Platform Services round trip per live counter the
      // way the full-snapshot collect does.
      if (!cached_hw_values_[slot].has_value()) {
        auto value = host_.counter_read(state_.counter_uuids[slot]);
        if (!value.ok()) return value.status();
        cached_hw_values_[slot] = value.value();
      }
      const uint64_t effective =
          static_cast<uint64_t>(state_.counter_offsets[slot]) +
          static_cast<uint64_t>(*cached_hw_values_[slot]);
      if (effective > std::numeric_limits<uint32_t>::max()) {
        return Status::kCounterOverflow;
      }
      chunk.values[s] = static_cast<uint32_t>(effective);
    }
    out.push_back(std::move(chunk));
  }
  return out;
}

std::vector<ChunkManifestEntry> MigrationLibrary::staged_manifest() const {
  std::vector<ChunkManifestEntry> manifest;
  manifest.reserve(attempt_->staged_chunks.size());
  for (const auto& [index, chunk] : attempt_->staged_chunks) {
    manifest.push_back({index, chunk.generation});
  }
  return manifest;
}

Result<PrecopyRoundReport> MigrationLibrary::migration_precopy_round(
    const std::string& destination_address, MigrationPolicy policy) {
  if (!initialized_) return Status::kNotInitialized;
  if (runtime_frozen_) return Status::kMigrationFrozen;
  if (state_.epoch_active == 0) return Status::kInvalidState;
  if (destination_address.empty()) return Status::kInvalidParameter;
  const Status channel_status = ensure_me_channel();
  if (channel_status != Status::kOk) return channel_status;
  // Switching destination restarts the attempt (fresh nonce, full
  // re-ship); the old destination's staged rounds are aborted.
  attempt_toward(destination_address, Attempt::Kind::kPrecopy);
  Attempt& attempt = *attempt_;

  trace_attempt_root(attempt.nonce);
  const uint64_t round_span =
      trace_step_begin("precopy_round", attempt.nonce, "round", attempt.rounds);

  auto chunks = collect_dirty_chunks(/*include_all_populated=*/
                                     attempt.rounds == 0);
  if (!chunks.ok()) {
    trace_step_end(round_span, "collect-failed");
    return chunks.status();
  }

  PrecopyRoundPayload payload;
  payload.destination_address = destination_address;
  payload.request_nonce = attempt.nonce;
  payload.round = attempt.rounds;
  payload.policy = std::move(policy);
  payload.chunks = chunks.value();
  Bytes request = payload.serialize();
  const uint64_t request_bytes = request.size();
  const MeReply reply =
      exchange(LibMsgType::kPrecopyRound, std::move(request),
               LibMsgType::kPrecopyAck, Status::kUnexpected,
               "ME round exchange", "ME round reply");
  if (!reply.result.ok()) {
    trace_step_end(round_span, reply.lost ? "exchange-failed" : "rejected");
    return reply.result.status;
  }
  // Commit only after the ME acknowledged: a failed round re-collects and
  // re-ships the same chunks (the destination merges idempotently by
  // generation).
  for (CounterChunk& chunk : chunks.value()) {
    attempt.shipped_generation[chunk.index] = chunk.generation;
    attempt.staged_chunks[chunk.index] = chunk;
  }
  PrecopyRoundReport report;
  report.round = attempt.rounds;
  report.chunks_shipped = static_cast<uint32_t>(chunks.value().size());
  report.bytes_shipped = request_bytes;
  attempt.round_bytes += request_bytes;
  ++attempt.rounds;
  if (obs::Observability* obs = observability();
      obs != nullptr && obs->enabled()) {
    if (round_span != 0) {
      obs->trace.span_arg(round_span, "chunks",
                          static_cast<uint64_t>(report.chunks_shipped));
      obs->trace.span_arg(round_span, "bytes", report.bytes_shipped);
    }
    obs->metrics.add("migration.precopy_rounds");
    obs->metrics.observe("migration.precopy_round_bytes",
                         static_cast<double>(report.bytes_shipped));
  }
  trace_step_end(round_span, "ok");
  return report;
}

Status MigrationLibrary::migration_finalize(
    const std::string& destination_address, MigrationPolicy policy) {
  return migration_finalize_detailed(destination_address, std::move(policy))
      .status;
}

MigrationStartResult MigrationLibrary::migration_finalize_detailed(
    const std::string& destination_address, MigrationPolicy policy) {
  if (initialized_ && state_.epoch_active == 0) {
    return start_failure(Status::kInvalidState,
                         "live-transfer capability check");
  }
  // Only a frozen finalize resumes; frozen by a completed migration (or a
  // staged full-snapshot start) leaves nothing for THIS protocol.
  const bool frozen = attempt_ && attempt_->finalize_frozen;
  const MigrationStartResult ready = check_can_migrate(frozen);
  if (!ready.ok()) return ready;

  if (!frozen) {
    // Pure stop-and-copy (no prior rounds) or a pre-freeze re-route ships
    // everything inside the finalize.
    attempt_toward(destination_address, Attempt::Kind::kPrecopy);
    Attempt& attempt = *attempt_;
    const MigrationStartResult froze =
        freeze_and_collect("collecting final delta", [&] {
          auto delta = collect_dirty_chunks(/*include_all_populated=*/
                                            attempt.rounds == 0);
          if (delta.ok()) attempt.final_chunks = std::move(delta).value();
          return delta.status();
        });
    if (!froze.ok()) return froze;
    for (const CounterChunk& chunk : attempt.final_chunks) {
      attempt.shipped_generation[chunk.index] = chunk.generation;
      attempt.staged_chunks[chunk.index] = chunk;
    }
    attempt.finalize_frozen = true;
  } else if (attempt_toward(destination_address, Attempt::Kind::kPrecopy)) {
    // Re-route after the freeze: the new destination has no staged
    // rounds, so the finalize carries the full staged set.
    attempt_->final_chunks.clear();
    for (const auto& [index, chunk] : attempt_->staged_chunks) {
      attempt_->final_chunks.push_back(chunk);
    }
  }
  Attempt& attempt = *attempt_;
  attempt.policy = policy;

  trace_attempt_root(attempt.nonce);

  if (!epoch_invalidated_ && !chaos_epoch_guard_disabled_) {
    // Constant-time invalidation of the sealed-buffer lineage: ONE epoch
    // increment plays the role the per-counter destroys play in the
    // full-snapshot path (§VI-B), so the actual destroys can wait until
    // after the destination is released.  Once this guard flips, no retry
    // may increment again (the value recorded below must stay exact).
    auto bumped = host_.counter_increment(state_.epoch_uuid);
    if (!bumped.ok()) {
      return start_failure(bumped.status(), "epoch invalidation");
    }
    state_.epoch_value = bumped.value();
    epoch_invalidated_ = true;
  }
  // The freeze flag is persisted with the advanced epoch.
  const MigrationStartResult persisted = persist_freeze();
  if (!persisted.ok()) return persisted;

  const uint64_t finalize_span =
      trace_step_begin("finalize", attempt.nonce, "rounds", attempt.rounds);

  PrecopyFinalizePayload payload;
  payload.destination_address = destination_address;
  payload.request_nonce = attempt.nonce;
  payload.round = attempt.rounds;
  payload.policy = std::move(policy);
  payload.chunks = attempt.final_chunks;
  payload.manifest = staged_manifest();
  payload.msk = state_.msk;
  const auto ship = [&] {
    Bytes request = payload.serialize();
    attempt.payload_bytes = attempt.round_bytes + request.size();
    return exchange(LibMsgType::kPrecopyFinalizeReq, std::move(request),
                    LibMsgType::kFinalizeAccepted, Status::kMigrationAborted,
                    "ME finalize exchange",
                    "destination rejected by source ME protocol");
  };
  MeReply reply = ship();
  if (!reply.lost && reply.msg.type == LibMsgType::kError &&
      reply.msg.status == Status::kPrecopyIncomplete) {
    // The destination's staged rounds do not cover the manifest (it lost
    // its queue, or a superseded attempt left partial staging): re-ship
    // the complete staged set once.
    payload.chunks.clear();
    for (const auto& [index, chunk] : attempt.staged_chunks) {
      payload.chunks.push_back(chunk);
    }
    reply = ship();
  }

  if (reply.lost) {
    if (!resume_lost_reply()) {
      trace_step_end(finalize_span, "exchange-failed");
      return reply.result;
    }
    trace_step_end(finalize_span, "resumed");
    return MigrationStartResult{};
  }
  if (reply.msg.type == LibMsgType::kMigrateQueued) {
    // Async source ME: the sealed finalize record ships through the
    // deferred pump — the enqueue-then-poll contract of the pipelined
    // full-snapshot path.  The enclave stays frozen; the freeze ends only
    // when the poll observes the destination's accept (finish_outgoing
    // then also runs the pre-copy teardown).
    attempt.queued = true;
    trace_step_end(finalize_span, "queued");
    return MigrationStartResult::pending("finalize queued at source ME");
  }
  if (!reply.result.ok()) {
    trace_step_end(finalize_span, "rejected");
    return reply.result;
  }
  trace_step_end(finalize_span, "ok");
  // The destination ME holds the authoritative snapshot: the freeze
  // window ends here.
  finish_outgoing();
  return MigrationStartResult{};
}

Result<OutgoingState> MigrationLibrary::query_status_internal(uint64_t nonce) {
  if (!initialized_) return Status::kNotInitialized;
  const Status channel_status = ensure_me_channel();
  if (channel_status != Status::kOk) return channel_status;
  LibMsg request;
  request.type = LibMsgType::kQueryStatus;
  QueryStatusPayload query;
  query.request_nonce = nonce;
  request.payload = query.serialize();
  auto reply = me_exchange_reattest(request);
  if (!reply.ok()) return reply.status();
  if (reply.value().type != LibMsgType::kStatusReport) {
    return Status::kUnexpected;
  }
  auto report = StatusReport::deserialize(reply.value().payload);
  if (!report.ok()) return report.status();
  return report.value().state;
}

Result<OutgoingState> MigrationLibrary::query_migration_status() {
  return query_status_internal(/*nonce=*/0);
}

Result<OutgoingState> MigrationLibrary::query_staged_attempt_status() {
  if (!attempt_) return OutgoingState::kNone;
  return query_status_internal(attempt_->nonce);
}

}  // namespace sgxmig::migration
