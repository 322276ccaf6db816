#include "migration/migration_enclave.h"

#include <type_traits>
#include <utility>

#include "crypto/cmac.h"
#include "net/network.h"
#include "obs/observability.h"

namespace sgxmig::migration {

namespace {
constexpr char kAcceptedMarker[] = "SGXMIG-ACCEPTED";
constexpr char kPrecopyAckMarker[] = "SGXMIG-PC-ACK";
constexpr char kPrecopyFinMarker[] = "SGXMIG-PC-FIN";
constexpr char kQueueAad[] = "SGXMIG-ME-QUEUE";
// The one durable queue format: retained transfers, pre-copy state,
// pipelined TransferTasks with their armed flags, and the cached ME<->ME
// resume sessions.
constexpr char kQueueMagic[] = "SGXMIG-ME-QUEUE-v4";
// Freeze-aware arm pacing: at most this many armed payloads may be in
// flight before the poll stops reporting kSlotLive for parked (kAwaitArm)
// tasks, so the freeze window of each reserved task stays bounded by its
// OWN ship + accept, not the whole in-flight window's serialized
// source-lane work.
constexpr size_t kArmWindow = 2;
// How often a staged finalize is re-attested / re-posted after a failed
// attest or hop before the task is handed back to the library.
constexpr uint32_t kFinalizeShipAttempts = 3;
// Confirmed-transfer history bound: enough to absorb duplicate DONEs from
// any realistic relay-retry window without growing with fleet lifetime.
constexpr size_t kCompletedHistoryLimit = 4096;

MeResponse error_response(Status status) {
  MeResponse resp;
  resp.status = status;
  return resp;
}

LibMsg lib_error(Status status) {
  LibMsg reply;
  reply.type = LibMsgType::kError;
  reply.status = status;
  return reply;
}

// Merge by generation: replayed or re-shipped chunks are idempotent,
// later generations win.
void merge_chunks(std::map<uint32_t, CounterChunk>& into,
                  const std::vector<CounterChunk>& chunks) {
  for (const CounterChunk& chunk : chunks) {
    const auto merged = into.find(chunk.index);
    if (merged == into.end() || merged->second.generation <= chunk.generation) {
      into[chunk.index] = chunk;
    }
  }
}

// ----- observability -----
//
// The ME never owns an Observability; it borrows the world's through its
// platform, and every hook below is a cheap no-op when tracing is off.

obs::Observability* enabled_obs(sgx::PlatformIface& platform) {
  obs::Observability* obs = platform.observability();
  return (obs != nullptr && obs->enabled()) ? obs : nullptr;
}

// TransferTask step transitions as trace instants on this ME's lane,
// keyed by the attempt nonce so they land inside the migration's tree.
void trace_task_step(sgx::PlatformIface& platform, uint64_t nonce,
                     const char* step) {
  obs::Observability* obs = enabled_obs(platform);
  if (obs == nullptr) return;
  obs->trace.instant("me.task.step", platform.address(), nonce,
                     {{"step", step}});
  obs->metrics.add(std::string("me.task.steps.") + step);
}

// ----- attestation-session resume transcripts -----
//
// All three values are CMACs under the cached master key over a
// domain-separated transcript that binds the conversation id, both
// parties' nonces and the responder epoch, so a resume message can be
// neither replayed into a different conversation nor spliced across
// epochs.

crypto::CmacTag resume_request_mac(const sgx::Key128& master, uint64_t id,
                                   const std::string& initiator_address,
                                   uint64_t responder_epoch,
                                   const std::array<uint8_t, 16>& nonce) {
  BinaryWriter w;
  w.str("SGXMIG-RESUME-REQ-v1");
  w.u64(id);
  w.str(initiator_address);
  w.u64(responder_epoch);
  w.fixed(nonce);
  const Bytes transcript = w.take();
  return crypto::aes_cmac(master, transcript);
}

crypto::CmacTag resume_reply_mac(const sgx::Key128& master, uint64_t id,
                                 const std::array<uint8_t, 16>& nonce_i,
                                 const std::array<uint8_t, 16>& nonce_r) {
  BinaryWriter w;
  w.str("SGXMIG-RESUME-REP-v1");
  w.u64(id);
  w.fixed(nonce_i);
  w.fixed(nonce_r);
  const Bytes transcript = w.take();
  return crypto::aes_cmac(master, transcript);
}

sgx::Key128 derive_resume_key(const sgx::Key128& master, uint64_t id,
                              const std::array<uint8_t, 16>& nonce_i,
                              const std::array<uint8_t, 16>& nonce_r) {
  BinaryWriter w;
  w.str("SGXMIG-RESUME-KEY-v1");
  w.u64(id);
  w.fixed(nonce_i);
  w.fixed(nonce_r);
  const Bytes transcript = w.take();
  return crypto::aes_cmac(master, transcript);
}
}  // namespace

MigrationEnclave::MigrationEnclave(sgx::PlatformIface& platform,
                                   std::shared_ptr<const sgx::EnclaveImage> image,
                                   platform::ProviderCa& provider,
                                   std::unique_ptr<PersistenceEngine> engine)
    : Enclave(platform, std::move(image)),
      machine_key_(crypto::Ed25519KeyPair::from_seed(
          to_array<32>(rng().bytes(32)))),
      credential_(provider.issue(platform.address(), platform.region(),
                                 platform.cpu_cores(),
                                 machine_key_.public_key())),
      provider_ca_key_(provider.public_key()),
      engine_(engine ? std::move(engine)
                     : make_persistence_engine(PersistenceMode::kSync)) {
  // Random per construction: a restarted/redeployed ME presents a new
  // epoch, so initiators holding cached sessions for the old instance are
  // refused and fall back to the full handshake.
  instance_epoch_ = fresh_id();
  if (auto* net = this->platform().network()) {
    net->register_endpoint(this->platform().address() + "/me",
                           [this](ByteView raw) { return handle_request(raw); });
  }
}

MigrationEnclave::~MigrationEnclave() {
  if (auto* net = platform().network()) {
    net->unregister_endpoint(platform().address() + "/me");
    // Replies still in flight for this instance's TransferTask steps must
    // never resume into a destroyed enclave (the crash simulation kills
    // the object while conversations are live); the requests themselves
    // stay on the wire, which is exactly the real-world ambiguity the
    // nonce dedup exists for.
    net->cancel_posts(net_endpoint());
  }
}

std::string MigrationEnclave::net_endpoint() const {
  return platform().address() + "/me";
}

std::shared_ptr<const sgx::EnclaveImage> MigrationEnclave::standard_image() {
  static const std::shared_ptr<const sgx::EnclaveImage> image =
      sgx::EnclaveImage::create("migration-enclave", /*code_version=*/1,
                                /*signer_name=*/"cloud-provider",
                                /*isv_prod_id=*/0x00e0, /*isv_svn=*/1);
  return image;
}

void MigrationEnclave::bump_instance_epoch() {
  auto scope = enter_ecall();
  ++instance_epoch_;
  // A redeployed ME forgets its acceptors: every initiator holding a
  // cached session is refused and forced back to the full handshake.
  resume_acceptors_.clear();
}

uint64_t MigrationEnclave::fresh_id() {
  const Bytes b = rng().bytes(8);
  const uint64_t id = load_be64(b.data());
  return id == 0 ? 1 : id;
}

OutgoingState MigrationEnclave::outgoing_state(
    const sgx::Measurement& mr) const {
  // The per-identity index tracks the most recent transfer (the same
  // enclave may migrate away repeatedly over its lifetime), so status
  // queries no longer scan every transfer ever retained.
  const auto it = latest_outgoing_.find(mr);
  return it == latest_outgoing_.end() ? OutgoingState::kNone
                                      : it->second.second;
}

void MigrationEnclave::record_completed(uint64_t transfer_id,
                                        const OutgoingTransfer& t) {
  CompletedOutgoing record;
  record.source_mr = t.source_mr;
  record.request_nonce = t.request_nonce;
  record.sequence = t.sequence;
  completed_outgoing_[transfer_id] = record;
  completed_order_.push_back(transfer_id);
  while (completed_order_.size() > history_limit()) {
    completed_outgoing_.erase(completed_order_.front());
    completed_order_.pop_front();
  }
}

std::map<uint64_t, MigrationEnclave::OutgoingTransfer>::iterator
MigrationEnclave::drop_outgoing(
    std::map<uint64_t, OutgoingTransfer>::iterator it) {
  secure_wipe(it->second.retained_data);
  // Keep the per-identity index consistent: a dropped attempt must read
  // as kNone (like a fresh ME), not linger as a never-evictable kPending.
  const auto latest = latest_outgoing_.find(it->second.source_mr);
  if (latest != latest_outgoing_.end() &&
      latest->second.first == it->second.sequence) {
    latest_outgoing_.erase(latest);
  }
  return outgoing_.erase(it);
}

bool MigrationEnclave::moved_on(const sgx::Measurement& mr,
                                uint64_t nonce) const {
  bool newer_completed = false;
  for (const auto& [id, record] : completed_outgoing_) {
    if (!(record.source_mr == mr)) continue;
    if (record.request_nonce == nonce) return false;  // this attempt won
    newer_completed = true;
  }
  return newer_completed;
}

size_t MigrationEnclave::history_limit() const {
  return completed_history_limit_ == 0 ? kCompletedHistoryLimit
                                       : completed_history_limit_;
}

void MigrationEnclave::set_completed_history_limit(size_t limit) {
  // The serialization format rejects restored queues claiming more than
  // kCompletedHistoryLimit entries (tamper check), so the override can
  // only shrink retention, never grow it past the format ceiling.
  completed_history_limit_ =
      (limit == 0 || limit >= kCompletedHistoryLimit) ? 0 : limit;
  while (completed_order_.size() > history_limit()) {
    completed_outgoing_.erase(completed_order_.front());
    completed_order_.pop_front();
  }
  while (confirmed_incoming_order_.size() > history_limit()) {
    confirmed_incoming_.erase(confirmed_incoming_order_.front());
    confirmed_incoming_order_.pop_front();
  }
}

void MigrationEnclave::drop_sessions_for(const sgx::Measurement& mr) {
  for (auto it = la_sessions_.begin(); it != la_sessions_.end();) {
    // Never erase the session on_la_record is currently dispatching for:
    // a DONE can arrive reentrantly (over a nested rpc) for the same
    // MRENCLAVE while an instance of that image is mid-conversation.
    if (it->second.peer.mr_enclave == mr && it->first != active_la_session_) {
      it = la_sessions_.erase(it);
    } else {
      ++it;
    }
  }
}

Result<Bytes> MigrationEnclave::handle_request(ByteView raw) {
  auto scope = enter_ecall();
  // Opportunistic DONE-relay retry: any inbound traffic is evidence the
  // network is back; try to clear the backlog before serving the request.
  // Rate-limited so a long outage does not tax every request with one
  // doomed rpc per backlog entry.
  if (!done_relays_.empty() &&
      platform().clock().now() - last_relay_retry_ >= relay_retry_interval_) {
    retry_done_relays();
  }
  // Same opportunism for abandoned pre-copy staging: inbound traffic is a
  // cheap moment to age out entries whose source will never finalize.
  if (!precopy_staging_.empty() &&
      platform().clock().now() - last_staging_sweep_ >=
          precopy_staging_max_age_) {
    sweep_stale_precopy_staging();
  }
  auto parsed = MeRequest::deserialize(raw);
  if (!parsed.ok()) return error_response(Status::kTampered).serialize();
  const MeRequest& req = parsed.value();

  MeResponse resp;
  switch (req.type) {
    case MeMsgType::kLaStart: resp = on_la_start(req); break;
    case MeMsgType::kLaMsg2: resp = on_la_msg2(req); break;
    case MeMsgType::kLaRecord: resp = on_la_record(req); break;
    case MeMsgType::kRaMsg1: resp = on_ra_msg1(req); break;
    case MeMsgType::kRaMsg3: resp = on_ra_msg3(req); break;
    case MeMsgType::kTransfer: resp = on_transfer(req); break;
    case MeMsgType::kDone: resp = on_done(req); break;
    case MeMsgType::kPrecopyChunk: resp = on_precopy_chunk(req); break;
    case MeMsgType::kPrecopyFinalize: resp = on_precopy_finalize(req); break;
    case MeMsgType::kReconcile: resp = on_reconcile(req); break;
    case MeMsgType::kAbort: resp = on_abort(req); break;
    case MeMsgType::kSessionResume: resp = on_session_resume(req); break;
  }
  return resp.serialize();
}

// ----- local attestation service -----

MeResponse MigrationEnclave::on_la_start(const MeRequest& req) {
  // A replayed/colliding session id must not clobber a live session (its
  // channel — and any delivery pinned to it — would be silently lost).
  if (la_sessions_.count(req.id) != 0) {
    return error_response(Status::kAlreadyExists);
  }
  LaSessionState session;
  session.dh = std::make_unique<sgx::DhSession>(platform(), identity(),
                                                sgx::DhSession::Role::kResponder);
  session.last_used = platform().clock().now();
  MeResponse resp;
  resp.status = Status::kOk;
  resp.payload = session.dh->create_msg1().serialize();
  la_sessions_[req.id] = std::move(session);
  return resp;
}

MeResponse MigrationEnclave::on_la_msg2(const MeRequest& req) {
  const auto it = la_sessions_.find(req.id);
  if (it == la_sessions_.end()) return error_response(Status::kInvalidState);
  auto msg2 = sgx::DhMsg2::deserialize(req.payload);
  if (!msg2.ok()) return error_response(Status::kTampered);
  auto msg3 = it->second.dh->handle_msg2(msg2.value());
  if (!msg3.ok()) {
    la_sessions_.erase(it);
    return error_response(msg3.status());
  }
  // Record the attested identity of the calling enclave: this MRENCLAVE is
  // what migration data is matched against (paper §VI-A).
  it->second.peer = it->second.dh->peer_identity();
  it->second.channel.emplace(it->second.dh->session_key(),
                             net::SecureChannel::Role::kResponder);
  it->second.last_used = platform().clock().now();
  MeResponse resp;
  resp.status = Status::kOk;
  resp.payload = msg3.value().serialize();
  return resp;
}

MeResponse MigrationEnclave::on_la_record(const MeRequest& req) {
  const auto it = la_sessions_.find(req.id);
  if (it == la_sessions_.end() || !it->second.channel.has_value()) {
    return error_response(Status::kInvalidState);
  }
  LaSessionState& session = it->second;
  session.last_used = platform().clock().now();
  auto plaintext = session.channel->open_record(req.payload);
  if (!plaintext.ok()) return error_response(plaintext.status());
  auto msg = LibMsg::deserialize(plaintext.value());
  if (!msg.ok()) return error_response(Status::kTampered);

  // Inner handlers can make nested rpcs whose peers re-enter
  // handle_request (DONE-relay retries): shield this session from
  // drop_sessions_for while it is being dispatched.
  const uint64_t previous_active = active_la_session_;
  active_la_session_ = req.id;
  LibMsg reply;
  switch (msg.value().type) {
    case LibMsgType::kMigrateRequest:
      reply = on_migrate_request(session, msg.value());
      break;
    case LibMsgType::kFetchIncoming:
      reply = on_fetch_incoming(req.id, session);
      break;
    case LibMsgType::kConfirmMigration:
      reply = on_confirm_migration(req.id, session, msg.value());
      break;
    case LibMsgType::kQueryStatus:
      reply = on_query_status(session, msg.value());
      break;
    case LibMsgType::kPrecopyRound:
      reply = on_precopy_round(session, msg.value());
      break;
    case LibMsgType::kPrecopyFinalizeReq:
      reply = on_precopy_finalize_req(session, msg.value());
      break;
    case LibMsgType::kMigrateEnqueue:
      reply = on_migrate_enqueue(session, msg.value());
      break;
    case LibMsgType::kMigrateReserve:
      reply = on_migrate_reserve(session, msg.value());
      break;
    case LibMsgType::kMigrateArm:
      reply = on_migrate_arm(session, msg.value());
      break;
    case LibMsgType::kPollTransfer:
      reply = on_poll_transfer(session, msg.value());
      break;
    case LibMsgType::kAbortStale:
      reply = on_abort_stale(session, msg.value());
      break;
    default:
      reply.type = LibMsgType::kError;
      reply.status = Status::kInvalidParameter;
      break;
  }
  active_la_session_ = previous_active;
  // Re-resolve the session before touching the channel: belt over the
  // shield above, in case a reentrant path erased it after all.
  const auto after = la_sessions_.find(req.id);
  if (after == la_sessions_.end() || !after->second.channel.has_value()) {
    return error_response(Status::kInvalidState);
  }
  MeResponse resp;
  resp.status = Status::kOk;
  resp.payload = after->second.channel->seal_record(reply.serialize());
  // A confirmed delivery ends the session's purpose: drop it so a long
  // drain does not accumulate one dead session per migrated enclave.  (A
  // library that outlives the confirm simply re-attests on its next call.)
  if (reply.type == LibMsgType::kConfirmAck) la_sessions_.erase(after);
  return resp;
}

// ----- inner LibMsg handlers -----

LibMsg MigrationEnclave::on_migrate_request(LaSessionState& session,
                                            const LibMsg& msg) {
  auto request = MigrateRequestPayload::deserialize(msg.payload);
  if (!request.ok()) return lib_error(Status::kTampered);
  if (!can_pump_inline()) {
    // Under a lane schedule only the schedule's owner may pump the wire;
    // a caller there enqueues (kMigrateEnqueue) and polls instead.
    LibMsg reply;
    reply.type = LibMsgType::kError;
    reply.status = Status::kInvalidState;
    return reply;
  }
  const uint64_t nonce = request.value().request_nonce;
  // The same task a kMigrateEnqueue queues, minus the seal: the blocked
  // library still holds the data, and a lost reply resolves through the
  // nonce-scoped status query.
  LibMsg reply = queue_transfer(session, std::move(request).value(),
                                /*armed=*/true, /*durable=*/false);
  if (reply.type != LibMsgType::kMigrateQueued) return reply;
  pump_inline([this, nonce] {
    const auto it = transfer_tasks_.find(nonce);
    return it == transfer_tasks_.end() ||
           it->second.step == TransferTask::Step::kFailed;
  });
  reply.type = LibMsgType::kError;
  const auto it = transfer_tasks_.find(nonce);
  if (it != transfer_tasks_.end()) {
    // The reply carries the failure (or, with the wire idle, a task that
    // cannot finish — a reservation nobody armed), so nothing is left for
    // a poll.  A task queued earlier for this attempt is consumed durably.
    reply.status = it->second.step == TransferTask::Step::kFailed
                       ? it->second.failure
                       : Status::kInvalidState;
    const bool durable = it->second.durable;
    transfer_tasks_.erase(it);
    if (durable) persist_queue();
    return reply;
  }
  // The task dissolved into the retained transfer.
  reply.type = LibMsgType::kMigrateAccepted;
  return reply;
}

LibMsg MigrationEnclave::on_fetch_incoming(uint64_t session_id,
                                           LaSessionState& session) {
  LibMsg reply;
  const auto it = pending_.find(session.peer.mr_enclave);
  if (it == pending_.end()) return lib_error(Status::kNoPendingMigration);
  // Deliver to exactly one enclave instance: once handed to a session, no
  // other session may fetch it (prevents forking the migration data into
  // two concurrently-running destination enclaves).  The pin is released
  // only when the pinned session is GONE — erased, lost to an ME restart,
  // or idle past the takeover timeout (the destination instance died
  // before confirming) — so a replacement instance of the same attested
  // MRENCLAVE can re-fetch instead of the migration being stuck forever.
  if (it->second.delivering_session != 0 &&
      it->second.delivering_session != session_id) {
    const auto pinned = la_sessions_.find(it->second.delivering_session);
    const bool pinned_gone = pinned == la_sessions_.end();
    const bool pinned_idle =
        !pinned_gone && platform().clock().now() - pinned->second.last_used >=
                            delivery_takeover_timeout_;
    if (!pinned_gone && !pinned_idle) {
      return lib_error(Status::kMigrationInProgress);
    }
    // Revoke the stale session so the presumed-dead instance cannot come
    // back and race the new one for the confirm.
    if (!pinned_gone) la_sessions_.erase(pinned);
  }
  it->second.delivering_session = session_id;
  // The token rides inside the sealed reply: possession later proves the
  // confirmer is the instance this very record reached.
  it->second.delivery_token = fresh_id();
  reply.type = LibMsgType::kIncomingData;
  reply.status = Status::kOk;
  FetchReply fetched;
  fetched.data = it->second.data;
  fetched.delivery_token = it->second.delivery_token;
  fetched.request_nonce = it->second.request_nonce;
  reply.payload = fetched.serialize();
  if (obs::Observability* obs = enabled_obs(platform())) {
    obs->trace.instant("me.fetch", platform().address(),
                       it->second.request_nonce);
    obs->metrics.add("me.fetches");
  }
  return reply;
}

LibMsg MigrationEnclave::on_confirm_migration(uint64_t session_id,
                                              LaSessionState& session,
                                              const LibMsg& msg) {
  LibMsg reply;
  // The delivery token from the fetch reply.  An instance that
  // re-attested (channel desync, corrupted record forcing a fresh LA
  // session) confirms from a session that is NOT the pinned one; the
  // token — which only the fetch reply's recipient can hold —
  // re-establishes ownership.
  auto confirm = ConfirmPayload::deserialize(msg.payload);
  if (!confirm.ok()) return lib_error(Status::kTampered);
  const uint64_t token = confirm.value().delivery_token;
  const auto it = pending_.find(session.peer.mr_enclave);
  const bool owner =
      it != pending_.end() &&
      (it->second.delivering_session == session_id ||
       (token != 0 && token == it->second.delivery_token));
  if (it != pending_.end() && owner &&
      it->second.delivering_session != session_id) {
    // Token-based takeover: revoke the stale pinned session so the old
    // channel cannot race this one.
    la_sessions_.erase(it->second.delivering_session);
    it->second.delivering_session = session_id;
  }
  if (!owner) {
    // Idempotent re-confirm: if a migration for this identity was already
    // confirmed (the previous ConfirmAck reply was lost and the library
    // re-attested to retry), acknowledge again rather than failing the
    // fully restored destination instance.  No state changes; an enclave
    // that never fetched cannot reach its confirm step (its init fails at
    // the fetch), so this leaks nothing.
    if (it == pending_.end() &&
        confirmed_incoming_.count(session.peer.mr_enclave) != 0) {
      reply.type = LibMsgType::kConfirmAck;
      reply.status = Status::kOk;
      return reply;
    }
    reply.type = LibMsgType::kError;
    reply.status = Status::kInvalidState;
    return reply;
  }
  const uint64_t transfer_id = it->second.transfer_id;
  const std::string source_address = it->second.source_me_address;
  const uint64_t request_nonce = it->second.request_nonce;

  // Seal the DONE record for the source ME while the inbound channel is
  // still at hand, then retire both queue entries.  The erase of pending_
  // MUST be durable before the ConfirmAck leaves this enclave: if an ME
  // restart resurrected the pending entry after the destination enclave
  // started running, a second instance could fetch it — the §III-B fork.
  const auto inbound_it = inbound_.find(transfer_id);
  std::optional<DoneRelay> relay;
  if (inbound_it != inbound_.end() && inbound_it->second.channel.has_value()) {
    DoneRecord done;
    done.transfer_id = transfer_id;
    DoneRelay r;
    r.source_me_address = source_address;
    r.sealed_record = inbound_it->second.channel->seal_record(done.serialize());
    relay = std::move(r);
    inbound_.erase(inbound_it);
  }
  pending_.erase(it);
  if (relay.has_value()) done_relays_[transfer_id] = std::move(*relay);
  if (confirmed_incoming_.count(session.peer.mr_enclave) == 0) {
    confirmed_incoming_order_.push_back(session.peer.mr_enclave);
  }
  confirmed_incoming_[session.peer.mr_enclave] = transfer_id;
  while (confirmed_incoming_order_.size() > history_limit()) {
    confirmed_incoming_.erase(confirmed_incoming_order_.front());
    confirmed_incoming_order_.pop_front();
  }
  const Status persisted = persist_queue();
  if (persisted != Status::kOk) return lib_error(persisted);

  // Relay DONE to the source ME so it can delete its retained copy.  If
  // the source is unreachable the sealed record stays in the durable
  // relay backlog and is retried (§V-D's error handling: the source
  // simply keeps the data as "pending" until the DONE gets through).
  retry_done_relays();

  if (obs::Observability* obs = enabled_obs(platform())) {
    obs->trace.instant("me.confirm", platform().address(), request_nonce);
    obs->metrics.add("me.confirms");
  }
  reply.type = LibMsgType::kConfirmAck;
  reply.status = Status::kOk;
  return reply;
}

size_t MigrationEnclave::retry_done_relays() {
  auto* net = platform().network();
  if (net == nullptr) return done_relays_.size();
  // Reentrancy guard: a relay rpc makes the peer ME handle a request,
  // which opportunistically retries ITS backlog — two MEs with relays
  // pointed at each other would otherwise recurse without bound.
  if (retrying_relays_) return done_relays_.size();
  retrying_relays_ = true;
  last_relay_retry_ = platform().clock().now();
  std::vector<uint64_t> ids;
  ids.reserve(done_relays_.size());
  for (const auto& [id, relay] : done_relays_) ids.push_back(id);
  bool any_delivered = false;
  for (const uint64_t id : ids) {
    const DoneRelay& relay = done_relays_[id];
    MeRequest done_req;
    done_req.type = MeMsgType::kDone;
    done_req.id = id;
    done_req.payload = relay.sealed_record;
    auto raw = net->rpc(relay.source_me_address + "/me", done_req.serialize());
    if (!raw.ok()) continue;
    auto resp = MeResponse::deserialize(raw.value());
    if (!resp.ok()) continue;
    const Status status = resp.value().status;
    // kOk: the source acknowledged and deleted its copy.  kInvalidState:
    // the source does not know the transfer at all — the completion
    // record aged out of its bounded history, or it lost its queue —
    // so re-sending can never succeed; the entry is spent either way.
    // Anything else (transport loss, transient errors) keeps the entry
    // for another round.  (A network adversary forging an ack can at
    // worst make the source retain its copy forever — an availability
    // cost, never a fork.)
    if (status != Status::kOk && status != Status::kInvalidState) continue;
    done_relays_.erase(id);
    any_delivered = true;
  }
  retrying_relays_ = false;
  if (any_delivered) persist_queue();
  return done_relays_.size();
}

LibMsg MigrationEnclave::on_query_status(LaSessionState& session,
                                         const LibMsg& msg) {
  LibMsg reply;
  auto query = QueryStatusPayload::deserialize(msg.payload);
  if (!query.ok()) return lib_error(Status::kTampered);
  OutgoingState state = OutgoingState::kNone;
  const uint64_t nonce = query.value().request_nonce;
  if (nonce == 0) {
    state = outgoing_state(session.peer.mr_enclave);
  } else {
    // Nonce-scoped query: the fate of exactly one migrate request — the
    // resume path a library uses when its ME exchange died mid-flight.
    state = outgoing_fate(session.peer.mr_enclave, nonce).state;
  }
  reply.type = LibMsgType::kStatusReport;
  reply.status = Status::kOk;
  StatusReport report;
  report.state = state;
  reply.payload = report.serialize();
  return reply;
}

// ----- outgoing migration (source side, paper Fig. 2 steps 3-4) -----

// The handshake halves below are shared by the posted TransferTask steps
// and the blocking attest_peer_me of the one-shot abort and reconcile
// queries: each one consumes a peer reply and produces the next request
// (or the attested channel).

Result<MeRequest> MigrationEnclave::resume_request(
    const std::string& destination_address, uint64_t transfer_id,
    const MigrationPolicy& policy, std::array<uint8_t, 16>& nonce_i) {
  const auto it = peer_sessions_.find(destination_address);
  if (it == peer_sessions_.end()) return Status::kNoPendingMigration;
  // Per-attempt policy runs against the CACHED provider-certified
  // credential: a denial is as authoritative as one against a freshly
  // attested credential, and no restart evidence, so the cache survives.
  const Status policy_status = policy.evaluate(it->second.credential);
  if (policy_status != Status::kOk) return policy_status;
  SessionResumeRequest resume;
  resume.initiator_address = platform().address();
  resume.responder_epoch = it->second.peer_epoch;
  resume.nonce = to_array<16>(rng().bytes(16));
  resume.mac = resume_request_mac(it->second.master_key, transfer_id,
                                  resume.initiator_address,
                                  resume.responder_epoch, resume.nonce);
  nonce_i = resume.nonce;
  MeRequest req;
  req.type = MeMsgType::kSessionResume;
  req.id = transfer_id;
  req.payload = resume.serialize();
  return req;
}

Result<net::SecureChannel> MigrationEnclave::resumed_channel(
    const std::string& destination_address, uint64_t transfer_id,
    const std::array<uint8_t, 16>& nonce_i, const Result<Bytes>& raw) {
  // Transport failure says nothing about the peer's session table: keep
  // the cache (a full handshake would hit the same dead wire).
  if (!raw.ok()) return raw.status();
  const auto it = peer_sessions_.find(destination_address);
  if (it == peer_sessions_.end()) return Status::kNoPendingMigration;
  // The peer answered but refused (restart, epoch bump, MAC rejection),
  // or its reply does not verify: either way the entry is retired.
  const auto refused = [&](Status status) {
    peer_sessions_.erase(it);
    return status;
  };
  auto payload = open_task_reply(raw);
  if (!payload.ok()) return refused(payload.status());
  auto reply = SessionResumeReply::deserialize(payload.value());
  if (!reply.ok()) return refused(Status::kTampered);
  const crypto::CmacTag expected =
      resume_reply_mac(it->second.master_key, transfer_id, nonce_i,
                       reply.value().nonce);
  if (!constant_time_eq(expected, reply.value().mac)) {
    return refused(Status::kMacMismatch);
  }
  const sgx::Key128 key = derive_resume_key(it->second.master_key,
                                            transfer_id, nonce_i,
                                            reply.value().nonce);
  ++resumed_handshakes_;
  if (obs::Observability* obs = enabled_obs(platform())) {
    obs->metrics.add("me.handshake.resumed");
  }
  return net::SecureChannel(key, net::SecureChannel::Role::kInitiator);
}

Result<MeRequest> MigrationEnclave::ra_msg3_request(sgx::RaSession& ra,
                                                    uint64_t transfer_id,
                                                    const Result<Bytes>& raw) {
  auto payload = open_task_reply(raw);
  if (!payload.ok()) return payload.status();
  auto msg2 = sgx::RaMsg2::deserialize(payload.value());
  if (!msg2.ok()) return Status::kTampered;
  auto msg3 = ra.handle_msg2(msg2.value());
  if (!msg3.ok()) return msg3.status();
  // The destination ME must run exactly this ME's code (paper §VI-A).
  if (!(ra.peer_identity().mr_enclave == identity().mr_enclave)) {
    return Status::kIdentityMismatch;
  }
  // Provider authentication (both directions) rides along with msg3.
  RaMsg3Bundle bundle;
  bundle.msg3 = msg3.value().serialize();
  bundle.provider_auth = make_provider_auth(ra.transcript_hash()).serialize();
  MeRequest m3;
  m3.type = MeMsgType::kRaMsg3;
  m3.id = transfer_id;
  m3.payload = bundle.serialize();
  return m3;
}

Result<net::SecureChannel> MigrationEnclave::handshake_channel(
    const sgx::RaSession& ra, const std::string& destination_address,
    const MigrationPolicy& policy, const Result<Bytes>& raw) {
  auto payload = open_task_reply(raw);
  if (!payload.ok()) return payload.status();
  auto reply = RaMsg3Reply::deserialize(payload.value());
  if (!reply.ok()) return Status::kTampered;
  const ProviderAuth& peer_auth = reply.value().provider_auth;
  std::string peer_region;
  const Status auth_status = verify_provider_auth(
      peer_auth, ra.transcript_hash(), destination_address, &peer_region);
  if (auth_status != Status::kOk) return auth_status;
  // Migration policy (paper §X extension): evaluated against the
  // destination's provider-CERTIFIED attributes, not self-claimed ones.
  const Status policy_status = policy.evaluate(peer_auth.credential);
  if (policy_status != Status::kOk) return policy_status;
  // Cache the session for one-round-trip resumes.  Durability rides the
  // caller's next queue transition — losing an entry only costs a full
  // handshake.
  PeerSession session;
  session.master_key = ra.session_key();
  session.peer_epoch = reply.value().responder_epoch;
  session.credential = peer_auth.credential;
  session.region = peer_region;
  peer_sessions_[destination_address] = std::move(session);
  ++full_handshakes_;
  if (obs::Observability* obs = enabled_obs(platform())) {
    obs->metrics.add("me.handshake.full");
  }
  return net::SecureChannel(ra.session_key(),
                            net::SecureChannel::Role::kInitiator);
}

Result<net::SecureChannel> MigrationEnclave::attest_peer_me(
    const std::string& destination_address, uint64_t transfer_id) {
  auto* net = platform().network();
  if (net == nullptr) return Status::kNetworkUnreachable;
  const MigrationPolicy policy;
  const std::string dest_endpoint = destination_address + "/me";
  // Cached-session resume first (one round trip).  Anything but a policy
  // denial (no cache entry, peer refused, transport) falls back to the
  // full handshake.
  std::array<uint8_t, 16> nonce_i{};
  auto resume =
      resume_request(destination_address, transfer_id, policy, nonce_i);
  if (resume.ok()) {
    auto resumed =
        resumed_channel(destination_address, transfer_id, nonce_i,
                        net->rpc(dest_endpoint, resume.value().serialize()));
    if (resumed.ok()) return resumed;
  } else if (resume.status() == Status::kPolicyViolation) {
    return resume.status();
  }
  // Mutual remote attestation + provider authentication.
  sgx::RaSession ra(platform(), identity(), sgx::RaSession::Role::kInitiator);
  MeRequest m1;
  m1.type = MeMsgType::kRaMsg1;
  m1.id = transfer_id;
  m1.payload = ra.create_msg1().serialize();
  auto m3 = ra_msg3_request(ra, transfer_id,
                            net->rpc(dest_endpoint, m1.serialize()));
  if (!m3.ok()) return m3.status();
  return handshake_channel(ra, destination_address, policy,
                           net->rpc(dest_endpoint, m3.value().serialize()));
}

MeResponse MigrationEnclave::on_session_resume(const MeRequest& req) {
  auto parsed = SessionResumeRequest::deserialize(req.payload);
  if (!parsed.ok()) return error_response(Status::kTampered);
  const SessionResumeRequest& resume = parsed.value();
  const auto it = resume_acceptors_.find(resume.initiator_address);
  if (it == resume_acceptors_.end()) {
    // Acceptors are memory-only BY DESIGN: a restarted ME cannot prove it
    // never forked the old session's state, so it forces the initiator
    // back through the full handshake.
    return error_response(Status::kInvalidState);
  }
  if (resume.responder_epoch != instance_epoch_) {
    resume_acceptors_.erase(it);
    return error_response(Status::kInvalidState);
  }
  const crypto::CmacTag expected = resume_request_mac(
      it->second.master_key, req.id, resume.initiator_address,
      resume.responder_epoch, resume.nonce);
  if (!constant_time_eq(expected, resume.mac)) {
    // A forged/tampered resume retires the acceptor: worst case the
    // legitimate initiator is downgraded to a full handshake.
    resume_acceptors_.erase(it);
    return error_response(Status::kMacMismatch);
  }
  // A colliding conversation id must not clobber a live inbound transfer.
  if (inbound_.count(req.id) != 0) {
    return error_response(Status::kAlreadyExists);
  }
  SessionResumeReply reply;
  reply.nonce = to_array<16>(rng().bytes(16));
  reply.mac = resume_reply_mac(it->second.master_key, req.id, resume.nonce,
                               reply.nonce);
  InboundTransfer inbound;
  inbound.authenticated = true;
  inbound.source_region = it->second.source_region;
  inbound.source_address = it->second.source_address;
  inbound.channel.emplace(
      derive_resume_key(it->second.master_key, req.id, resume.nonce,
                        reply.nonce),
      net::SecureChannel::Role::kResponder);
  inbound_[req.id] = std::move(inbound);
  MeResponse resp;
  resp.status = Status::kOk;
  resp.payload = reply.serialize();
  return resp;
}

MigrationEnclave::OutgoingFate MigrationEnclave::outgoing_fate(
    const sgx::Measurement& source_mr, uint64_t nonce) const {
  OutgoingFate fate;
  for (const auto& [id, transfer] : outgoing_) {
    if (transfer.source_mr == source_mr && transfer.request_nonce == nonce) {
      fate.state = OutgoingState::kPending;
      fate.retained = &transfer;
      return fate;
    }
  }
  for (const auto& [id, record] : completed_outgoing_) {
    if (record.source_mr == source_mr && record.request_nonce == nonce) {
      fate.state = OutgoingState::kCompleted;
      return fate;
    }
  }
  return fate;
}

Status MigrationEnclave::dedup_against_queue(
    const sgx::Measurement& source_mr, uint64_t nonce,
    const std::string& destination_address) {
  // Exactly-once dedup: a library whose previous attempt's REPLY was lost
  // re-sends the same request (same nonce, same destination — the library
  // draws a fresh nonce when it re-routes).  If that attempt already
  // retained (or even completed) a transfer, report success instead of
  // shipping the data a second time.
  if (nonce == 0) return Status::kNoPendingMigration;
  const OutgoingFate fate = outgoing_fate(source_mr, nonce);
  if (fate.state == OutgoingState::kCompleted) return Status::kOk;
  if (fate.retained != nullptr &&
      fate.retained->destination_address == destination_address) {
    // Re-fence before acking: if the original attempt's persist
    // failed, this success must not stand on a non-durable entry.
    return persist_queue();
  }
  return Status::kNoPendingMigration;
}

uint64_t MigrationEnclave::draw_transfer_id() {
  const uint64_t id = fresh_id();
  const bool taken = outgoing_.count(id) != 0 ||
                     completed_outgoing_.count(id) != 0 ||
                     inbound_.count(id) != 0;
  return taken ? 0 : id;
}

// ----- outgoing transfers (TransferTask step machine) -----
//
// The source side of paper Fig. 2 steps 3-4, decomposed at its network
// round trips: each step parses the previous reply, advances the task,
// and posts the next message through the deferred-delivery pump.  N tasks
// interleave over independent RA channels; the source ME's compute still
// serializes (one enclave), but wire latency and the destination MEs'
// work genuinely overlap — which is what turns the orchestrator's
// in-flight cap into a throughput lever.  The blocking kMigrateRequest
// drives the same steps through pump_inline, and pre-copy tasks attest on
// them too (see "live pre-copy" below).

LibMsg MigrationEnclave::on_migrate_enqueue(LaSessionState& session,
                                            const LibMsg& msg) {
  auto request = MigrateRequestPayload::deserialize(msg.payload);
  if (!request.ok()) return lib_error(Status::kTampered);
  return queue_transfer(session, std::move(request).value(), /*armed=*/true,
                        /*durable=*/true);
}

LibMsg MigrationEnclave::on_migrate_reserve(LaSessionState& session,
                                            const LibMsg& msg) {
  // Enqueue-without-freeze: the library reserves a transfer slot while the
  // enclave keeps running.  The task attests ahead of time and then parks
  // at kAwaitArm; the poll reports kSlotLive and only then does the
  // library freeze, collect, and arm the payload.
  auto parsed = MigrateReservePayload::deserialize(msg.payload);
  if (!parsed.ok()) return lib_error(Status::kTampered);
  MigrateRequestPayload request;
  request.destination_address = parsed.value().destination_address;
  request.request_nonce = parsed.value().request_nonce;
  request.policy = parsed.value().policy;
  return queue_transfer(session, std::move(request), /*armed=*/false,
                        /*durable=*/true);
}

LibMsg MigrationEnclave::queue_transfer(LaSessionState& session,
                                        MigrateRequestPayload request,
                                        bool armed, bool durable) {
  LibMsg reply;
  reply.type = LibMsgType::kError;
  const uint64_t nonce = request.request_nonce;
  if (nonce == 0 || request.destination_address == platform().address()) {
    // The engine is built on nonce-scoped exactly-once semantics.
    reply.status = Status::kInvalidParameter;
    return reply;
  }
  const sgx::Measurement& mr = session.peer.mr_enclave;
  // Already retained/completed (re-sent request after a lost reply):
  // idempotent queue — the poll will observe kAccepted.
  const Status dedup =
      dedup_against_queue(mr, nonce, request.destination_address);
  if (dedup != Status::kNoPendingMigration) {
    reply.type = dedup == Status::kOk ? LibMsgType::kMigrateQueued
                                      : LibMsgType::kError;
    reply.status = dedup;
    return reply;
  }
  const auto existing = transfer_tasks_.find(nonce);
  if (existing != transfer_tasks_.end()) {
    if (!(existing->second.source_mr == mr)) {
      reply.status = Status::kAlreadyExists;  // foreign nonce collision
      return reply;
    }
    if (existing->second.precopy.has_value() ||
        existing->second.request.destination_address !=
            request.destination_address) {
      // One nonce binds one (attempt, kind, destination): the library
      // draws a fresh nonce on every re-route, so a mismatch is a broken
      // client.  Honoring it would also desync the durable task
      // (which resurrects with the OLD destination after a restart).
      reply.status = Status::kInvalidParameter;
      return reply;
    }
    if (existing->second.step == TransferTask::Step::kFailed) {
      // An unpolled stale failure superseded by a retry of the same
      // attempt: restart it.  The durable form (nonce, mr, request) is
      // unchanged — tasks persist as kQueued — so no re-fence is needed
      // before the ack.
      existing->second.step = TransferTask::Step::kQueued;
      existing->second.failure = Status::kOk;
      existing->second.ra.reset();
      existing->second.channel.reset();
      kick_task(nonce);
    }
    // Mid-flight: idempotent re-queue.
    reply.type = LibMsgType::kMigrateQueued;
    reply.status = Status::kOk;
    return reply;
  }
  TransferTask task;
  task.source_mr = mr;
  task.armed = armed;
  task.durable = durable;
  task.request = std::move(request);
  transfer_tasks_[nonce] = std::move(task);
  // Durable BEFORE the queued ack: a restarted ME must resume this
  // pipeline — the library holds no copy of the conversation, only the
  // right to poll its fate.
  const Status persisted = durable ? persist_queue() : Status::kOk;
  if (persisted != Status::kOk) {
    transfer_tasks_.erase(nonce);
    reply.status = persisted;
    return reply;
  }
  kick_task(nonce);
  reply.type = LibMsgType::kMigrateQueued;
  reply.status = Status::kOk;
  return reply;
}

LibMsg MigrationEnclave::on_migrate_arm(LaSessionState& session,
                                        const LibMsg& msg) {
  LibMsg reply;
  reply.type = LibMsgType::kError;
  auto request = MigrateRequestPayload::deserialize(msg.payload);
  if (!request.ok()) return lib_error(Status::kTampered);
  const uint64_t nonce = request.value().request_nonce;
  if (nonce == 0) return lib_error(Status::kInvalidParameter);
  const sgx::Measurement& mr = session.peer.mr_enclave;
  const auto it = transfer_tasks_.find(nonce);
  if (it == transfer_tasks_.end()) {
    // An arm re-sent after a lost ack may find the task already dissolved
    // into a retained/completed transfer: idempotent success.
    const Status dedup =
        dedup_against_queue(mr, nonce, request.value().destination_address);
    if (dedup == Status::kOk) {
      reply.type = LibMsgType::kArmAck;
      reply.status = Status::kOk;
      return reply;
    }
    reply.status = dedup;
    return reply;
  }
  if (!(it->second.source_mr == mr)) return lib_error(Status::kAlreadyExists);
  if (it->second.precopy.has_value() ||
      it->second.request.destination_address !=
          request.value().destination_address) {
    reply.status = Status::kInvalidParameter;
    return reply;
  }
  TransferTask& task = it->second;
  if (task.armed && task.step == TransferTask::Step::kAwaitAccept) {
    // Duplicate arm while the payload is already on the wire.
    reply.type = LibMsgType::kArmAck;
    reply.status = Status::kOk;
    return reply;
  }
  MigrationData previous = std::move(task.request.data);
  const bool was_armed = task.armed;
  task.request.data = std::move(request).value().data;
  task.armed = true;
  // Durable BEFORE the ack: the armed payload is the state the library
  // just destroyed its live instance for.
  const Status persisted = persist_queue();
  if (persisted != Status::kOk) {
    task.request.data = std::move(previous);
    task.armed = was_armed;
    reply.status = persisted;
    return reply;
  }
  if (task.step == TransferTask::Step::kAwaitArm) {
    ship_task_payload(nonce, task);
  }
  // Still attesting (e.g. after an ME restart collapsed the task to
  // kQueued): task_attested ships the armed payload when the channel is
  // ready.  A kFailed task keeps its failure for the next poll.
  reply.type = LibMsgType::kArmAck;
  reply.status = Status::kOk;
  return reply;
}

size_t MigrationEnclave::pump() {
  auto scope = enter_ecall();
  // Full-snapshot tasks re-attest from kQueued.  With asynchronous
  // pre-copy, idle pre-copy tasks get their next hop (re)posted, and a
  // failed one holding a staged finalize re-attests within its ship
  // budget; any other kQueued pre-copy task waits for the library's next
  // round, which answers its failure or brings the policy it attests
  // with.
  const bool precopy_hops = async_precopy();
  std::vector<uint64_t> kicks;
  for (const auto& [nonce, task] : transfer_tasks_) {
    const bool queued = task.step == TransferTask::Step::kQueued;
    if (!task.precopy.has_value()
            ? queued
            : precopy_hops && (task.step == TransferTask::Step::kIdle ||
                               (queued && task.precopy->staged_finalize))) {
      kicks.push_back(nonce);
    }
  }
  for (const uint64_t nonce : kicks) {
    if (transfer_tasks_.at(nonce).precopy.has_value()) {
      kick_precopy(nonce);
    } else {
      kick_task(nonce);
    }
  }
  // In-flight pre-copy tasks AND those still holding a staged finalize
  // count as live work so the driver keeps pumping this ME.
  size_t live = 0;
  for (const auto& [nonce, task] : transfer_tasks_) {
    if (!task.precopy.has_value()) {
      live += task.step != TransferTask::Step::kFailed;
    } else if (precopy_hops) {
      live += !precopy_settled(nonce) ||
              task.precopy->staged_finalize.has_value();
    }
  }
  return live;
}

void MigrationEnclave::kick_task(uint64_t nonce) {
  const auto it = transfer_tasks_.find(nonce);
  if (it == transfer_tasks_.end() ||
      it->second.step != TransferTask::Step::kQueued) {
    return;
  }
  TransferTask& task = it->second;
  auto* net = platform().network();
  if (net == nullptr) {
    fail_task(nonce, Status::kNetworkUnreachable);
    return;
  }
  const uint64_t transfer_id = draw_transfer_id();
  // An id collision must never clobber live conversation state; the
  // retryable-busy failure surfaces through the poll (or the blocking
  // reply) and the retry draws a fresh id.
  if (transfer_id == 0) {
    fail_task(nonce, Status::kAlreadyExists);
    return;
  }
  task.transfer_id = transfer_id;
  std::array<uint8_t, 16> nonce_i{};
  auto resume = resume_request(task.request.destination_address, transfer_id,
                               task.request.policy, nonce_i);
  if (resume.ok()) {
    task.step = TransferTask::Step::kAwaitResume;
    trace_task_step(platform(), nonce, "await-resume");
    net->post(task.request.destination_address + "/me",
              resume.value().serialize(), net_endpoint(),
              [this, nonce, nonce_i](Result<Bytes> raw) {
                task_on_resume(nonce, nonce_i, std::move(raw));
              });
    return;
  }
  if (resume.status() != Status::kNoPendingMigration) {
    fail_task(nonce, resume.status());  // policy denial, cached credential
    return;
  }
  task.ra = std::make_unique<sgx::RaSession>(platform(), identity(),
                                             sgx::RaSession::Role::kInitiator);
  MeRequest m1;
  m1.type = MeMsgType::kRaMsg1;
  m1.id = transfer_id;
  m1.payload = task.ra->create_msg1().serialize();
  task.step = TransferTask::Step::kAwaitRaMsg2;
  trace_task_step(platform(), nonce, "await-ra-msg2");
  net->post(task.request.destination_address + "/me", m1.serialize(),
            net_endpoint(),
            [this, nonce](Result<Bytes> raw) {
              task_on_ra_msg2(nonce, std::move(raw));
            });
}

Result<Bytes> MigrationEnclave::open_task_reply(const Result<Bytes>& raw) {
  if (!raw.ok()) return raw.status();
  auto resp = MeResponse::deserialize(raw.value());
  if (!resp.ok()) return Status::kTampered;
  if (resp.value().status != Status::kOk) return resp.value().status;
  return resp.value().payload;
}

void MigrationEnclave::task_on_ra_msg2(uint64_t nonce, Result<Bytes> raw) {
  auto scope = continuation_ecall();
  const auto it = transfer_tasks_.find(nonce);
  if (it == transfer_tasks_.end() ||
      it->second.step != TransferTask::Step::kAwaitRaMsg2) {
    return;  // superseded (restart, re-kick) — the reply is stale
  }
  TransferTask& task = it->second;
  auto m3 = ra_msg3_request(*task.ra, task.transfer_id, raw);
  if (!m3.ok()) return fail_task(nonce, m3.status());
  task.step = TransferTask::Step::kAwaitAuth;
  trace_task_step(platform(), nonce, "await-auth");
  platform().network()->post(
      task.request.destination_address + "/me", m3.value().serialize(),
      net_endpoint(), [this, nonce](Result<Bytes> raw2) {
        task_on_auth(nonce, std::move(raw2));
      });
}

void MigrationEnclave::task_on_auth(uint64_t nonce, Result<Bytes> raw) {
  auto scope = continuation_ecall();
  const auto it = transfer_tasks_.find(nonce);
  if (it == transfer_tasks_.end() ||
      it->second.step != TransferTask::Step::kAwaitAuth) {
    return;
  }
  TransferTask& task = it->second;
  auto channel = handshake_channel(*task.ra, task.request.destination_address,
                                   task.request.policy, raw);
  if (!channel.ok()) return fail_task(nonce, channel.status());
  task.channel.emplace(std::move(channel).value());
  task_attested(nonce, task);
}

void MigrationEnclave::task_on_resume(uint64_t nonce,
                                      std::array<uint8_t, 16> nonce_i,
                                      Result<Bytes> raw) {
  auto scope = continuation_ecall();
  const auto it = transfer_tasks_.find(nonce);
  if (it == transfer_tasks_.end() ||
      it->second.step != TransferTask::Step::kAwaitResume) {
    return;
  }
  TransferTask& task = it->second;
  // Transport failure: classify like the full path would (the fallback
  // handshake would hit the same dead wire), keeping the cache entry.
  if (!raw.ok()) return fail_task(nonce, raw.status());
  auto channel = resumed_channel(task.request.destination_address,
                                 task.transfer_id, nonce_i, raw);
  if (!channel.ok()) {
    // Resume refused or unverifiable (the cache entry is retired):
    // restart the attempt through the full handshake.
    task.step = TransferTask::Step::kQueued;
    trace_task_step(platform(), nonce, "requeued");
    task.ra.reset();
    task.channel.reset();
    kick_task(nonce);
    return;
  }
  task.channel.emplace(std::move(channel).value());
  task_attested(nonce, task);
}

void MigrationEnclave::task_attested(uint64_t nonce, TransferTask& task) {
  task.ra.reset();
  if (task.precopy.has_value()) {
    // A fresh channel after earlier rounds re-ships the whole merged set:
    // the destination converges by chunk generation no matter which
    // records were lost.
    task.step = TransferTask::Step::kIdle;
    task.failure = Status::kOk;
    task.precopy->resync = task.precopy->rounds > 0;
    kick_precopy(nonce);
    return;
  }
  if (!task.armed) {
    // Enqueue-without-freeze: hold the attested channel and let the next
    // poll report kSlotLive.  The library freezes, collects, and arms —
    // only then does the payload ship.
    task.step = TransferTask::Step::kAwaitArm;
    trace_task_step(platform(), nonce, "await-arm");
    return;
  }
  ship_task_payload(nonce, task);
}

void MigrationEnclave::ship_task_payload(uint64_t nonce, TransferTask& task) {
  TransferPayload payload;
  payload.source_mr_enclave = task.source_mr;
  payload.source_me_address = platform().address();
  payload.request_nonce = nonce;
  payload.data = task.request.data;
  const Bytes payload_bytes = payload.serialize();
  charge_gcm(payload_bytes.size());
  MeRequest t;
  t.type = MeMsgType::kTransfer;
  t.id = task.transfer_id;
  t.payload = task.channel->seal_record(payload_bytes);
  task.step = TransferTask::Step::kAwaitAccept;
  trace_task_step(platform(), nonce, "await-accept");
  platform().network()->post(
      task.request.destination_address + "/me", t.serialize(), net_endpoint(),
      [this, nonce](Result<Bytes> raw2) {
        task_on_accept(nonce, std::move(raw2));
      });
}

void MigrationEnclave::task_on_accept(uint64_t nonce, Result<Bytes> raw) {
  auto scope = continuation_ecall();
  const auto it = transfer_tasks_.find(nonce);
  if (it == transfer_tasks_.end() ||
      it->second.step != TransferTask::Step::kAwaitAccept) {
    return;
  }
  TransferTask& task = it->second;
  auto reply = open_task_reply(raw);
  if (!reply.ok()) return fail_task(nonce, reply.status());
  auto ack = task.channel->open_record(reply.value());
  if (!ack.ok()) return fail_task(nonce, ack.status());
  if (to_string(ack.value()) != kAcceptedMarker) {
    return fail_task(nonce, Status::kTampered);
  }

  // Destination accepted: retain until DONE, durably (paper §V-D).  The
  // task dissolves into the retained transfer BEFORE the snapshot is cut,
  // so a restore never resurrects both (a resumed task would re-ship a
  // nonce that is already retained).
  const sgx::Measurement source_mr = task.source_mr;
  const uint64_t transfer_id = task.transfer_id;
  OutgoingTransfer transfer;
  transfer.source_mr = source_mr;
  transfer.destination_address = task.request.destination_address;
  transfer.request_nonce = nonce;
  transfer.retained_data = task.request.data.serialize();
  transfer.channel = std::move(task.channel);
  transfer.sequence = next_outgoing_sequence_++;
  const uint64_t sequence = transfer.sequence;
  latest_outgoing_[source_mr] = {sequence, OutgoingState::kPending};
  outgoing_[transfer_id] = std::move(transfer);
  // Moved, not copied: kept only for the rare persist-failure unwind.
  MigrateRequestPayload request = std::move(task.request);
  transfer_tasks_.erase(it);
  trace_task_step(platform(), nonce, "retained");
  const Status persisted = persist_queue();
  if (persisted != Status::kOk) {
    // The retained entry must not stand non-durable: unwind it AND the
    // per-identity index entry it brought, then surface the failure
    // through a terminal task that still carries the real request — a
    // restart resurrects it as a well-formed kQueued retry, not an empty
    // husk.
    drop_outgoing(outgoing_.find(transfer_id));
    TransferTask failed;
    failed.source_mr = source_mr;
    failed.request = std::move(request);
    failed.step = TransferTask::Step::kFailed;
    failed.failure = persisted;
    transfer_tasks_[nonce] = std::move(failed);
  }
}

void MigrationEnclave::fail_task(uint64_t nonce, Status status) {
  const auto it = transfer_tasks_.find(nonce);
  if (it == transfer_tasks_.end()) return;
  TransferTask& task = it->second;
  task.failure = status;
  task.ra.reset();
  task.channel.reset();
  if (!task.precopy.has_value()) {
    task.step = TransferTask::Step::kFailed;
    trace_task_step(platform(), nonce, "failed");
    return;
  }
  // The channel may have desynced (our seal advanced the send sequence,
  // or the peer's ack advanced its own): the next kick re-attests under a
  // fresh transfer id and resyncs.  The merged state itself is kept.
  task.step = TransferTask::Step::kQueued;
  trace_task_step(platform(), nonce, "requeued");
  task.precopy->resync = true;
  if (task.precopy->staged_finalize.has_value() &&
      ++task.precopy->finalize_attempts >= kFinalizeShipAttempts) {
    // Hand back to the library: its poll observes kNone (a synchronous
    // finalize replies the failure) and the still frozen enclave
    // re-drives the finalize (dedup'd).
    task.precopy->staged_finalize.reset();
  }
}

LibMsg MigrationEnclave::on_poll_transfer(LaSessionState& session,
                                          const LibMsg& msg) {
  LibMsg reply;
  reply.type = LibMsgType::kError;
  auto parsed = PollTransferPayload::deserialize(msg.payload);
  if (!parsed.ok()) return lib_error(Status::kTampered);
  const uint64_t nonce = parsed.value().request_nonce;
  const sgx::Measurement& mr = session.peer.mr_enclave;
  TransferProgressPayload progress;
  const auto it = transfer_tasks_.find(nonce);
  const bool live = it != transfer_tasks_.end() && it->second.source_mr == mr;
  if (live && it->second.precopy.has_value()) {
    // Async finalize still shipping (or awaiting its next kick): the
    // frozen library keeps polling.  A task WITHOUT a staged finalize
    // reads kNone — the ME restarted (or exhausted the ship budget) and
    // the library must re-drive the finalize.
    progress.progress = it->second.precopy->staged_finalize.has_value()
                            ? TransferProgress::kInFlight
                            : TransferProgress::kNone;
  } else if (live) {
    if (it->second.step == TransferTask::Step::kFailed) {
      progress.progress = TransferProgress::kFailed;
      progress.failure = it->second.failure;
      // The failure is consumed by this report: the library owns the
      // retry decision from here (possibly re-enqueueing under the same
      // nonce, or re-routing under a fresh one).  The consumption must
      // be durable like every other queue transition — a snapshot still
      // carrying the task would resurrect the abandoned attempt as
      // kQueued after a restart and re-ship it to a destination the
      // library may have left behind.
      TransferTask failed = std::move(it->second);
      transfer_tasks_.erase(it);
      const Status persisted = persist_queue();
      if (persisted != Status::kOk) {
        // Reinstate the WHOLE task (request included): a restart must
        // resurrect a well-formed kQueued retry, not an empty husk
        // whose re-kick would mask the original failure.
        transfer_tasks_[nonce] = std::move(failed);
        reply.status = persisted;
        return reply;
      }
    } else if (it->second.step == TransferTask::Step::kAwaitArm) {
      // Attested and parked: the enclave may freeze+collect+arm — but only
      // while the armed ship window has room.  Unpaced, every parked task
      // would freeze at once and then wait through the whole in-flight
      // window's serialized source-lane seals; paced, each freeze covers
      // little more than its own ship + accept.
      size_t armed_in_flight = 0;
      for (const auto& [n, t] : transfer_tasks_) {
        if (t.armed && t.step == TransferTask::Step::kAwaitAccept) {
          ++armed_in_flight;
        }
      }
      progress.progress = armed_in_flight < kArmWindow
                              ? TransferProgress::kSlotLive
                              : TransferProgress::kInFlight;
    } else {
      progress.progress = TransferProgress::kInFlight;
    }
  } else {
    progress.progress = outgoing_fate(mr, nonce).state == OutgoingState::kNone
                            ? TransferProgress::kNone
                            : TransferProgress::kAccepted;
  }
  reply.type = LibMsgType::kTransferProgress;
  reply.status = Status::kOk;
  reply.payload = progress.serialize();
  return reply;
}

// ----- proactive abort on re-route -----

template <class Reply>
Result<Reply> MigrationEnclave::query_peer_me(const std::string& peer,
                                              MeMsgType type,
                                              const Bytes& body) {
  auto* net = platform().network();
  if (net == nullptr) return Status::kNetworkUnreachable;
  // The verdict authorizes deleting migration state, so it must come over
  // a fresh mutually attested, provider-authenticated channel from a
  // genuine peer ME, not from whoever owns the network.
  const uint64_t query_id = fresh_id();
  auto channel = attest_peer_me(peer, query_id);
  if (!channel.ok()) return channel.status();
  MeRequest req;
  req.type = type;
  req.id = query_id;
  req.payload = channel.value().seal_record(body);
  auto reply = open_task_reply(net->rpc(peer + "/me", req.serialize()));
  if (!reply.ok()) return reply.status();
  auto record = channel.value().open_record(reply.value());
  if (!record.ok()) return record.status();
  return Reply::deserialize(record.value());
}

Status MigrationEnclave::abort_remote_pending(
    const sgx::Measurement& source_mr, uint64_t nonce,
    const std::string& destination_address) {
  if (nonce == 0 || destination_address.empty() ||
      destination_address == platform().address()) {
    return Status::kInvalidParameter;
  }
  // The destination additionally checks the entry really originated from
  // THIS machine.
  AbortRequest request;
  request.source_mr_enclave = source_mr;
  request.request_nonce = nonce;
  auto verdict = query_peer_me<AbortVerdict>(
      destination_address, MeMsgType::kAbort, request.serialize());
  if (!verdict.ok()) return verdict.status();
  // safe == 0: the destination holds a DELIVERED entry for this nonce —
  // an instance may still confirm it, so nothing may be forgotten here.
  return verdict.value().safe == 1 ? Status::kOk
                                   : Status::kMigrationInProgress;
}

LibMsg MigrationEnclave::on_abort_stale(LaSessionState& session,
                                        const LibMsg& msg) {
  LibMsg reply;
  reply.type = LibMsgType::kError;
  auto parsed = AbortStalePayload::deserialize(msg.payload);
  if (!parsed.ok()) return lib_error(Status::kTampered);
  const uint64_t nonce = parsed.value().request_nonce;
  const sgx::Measurement& mr = session.peer.mr_enclave;
  // The re-routed attempt's own source-side task is orphaned too: an
  // abandoned pre-copy attempt or an unpolled/unfinished transfer for
  // this nonce will never finalize — drop it before telling the
  // destination.
  const auto task = transfer_tasks_.find(nonce);
  if (task != transfer_tasks_.end() && task->second.source_mr == mr) {
    transfer_tasks_.erase(task);
    // Fence BEFORE the remote abort: if the local drop cannot be made
    // durable, do not expire the destination's copy either — a restart
    // would resurrect the dropped task and re-ship the abandoned
    // attempt, recreating the very orphan this path exists to prevent.
    const Status persisted = persist_queue();
    if (persisted != Status::kOk) return lib_error(persisted);
  }
  // Best-effort remote expiry: a failure leaves the pull-based reconcile
  // sweep as the backstop, exactly as before.
  const Status remote = abort_remote_pending(
      mr, nonce, parsed.value().destination_address);
  bool wiped = false;
  if (remote == Status::kOk) {
    // The destination vouches it holds nothing undelivered for this
    // nonce: a retained copy of the abandoned attempt (its ACCEPTED
    // landed but the library never learned) has no one left to serve —
    // wipe it so a re-routed migration does not leak one retained
    // snapshot per abandoned destination.
    for (auto it = outgoing_.begin(); it != outgoing_.end();) {
      if (it->second.source_mr == mr && it->second.request_nonce == nonce) {
        it = drop_outgoing(it);  // the re-routed attempt re-indexes
        wiped = true;
      } else {
        ++it;
      }
    }
  }
  reply.type = LibMsgType::kAbortAck;
  reply.status = remote;
  if (wiped) {
    // Fenced like every queue transition; on failure surface the persist
    // status instead of the remote verdict (the wiped entry resurrects
    // from the stale snapshot after a restart — the caller must not
    // read that as a clean abort).
    const Status persisted = persist_queue();
    if (persisted != Status::kOk) reply.status = persisted;
  }
  return reply;
}

MeResponse MigrationEnclave::on_abort(const MeRequest& req) {
  const auto it = inbound_.find(req.id);
  if (it == inbound_.end() || !it->second.authenticated) {
    return error_response(Status::kInvalidState);
  }
  auto plaintext = it->second.channel->open_record(req.payload);
  if (!plaintext.ok()) return error_response(plaintext.status());
  auto parsed = AbortRequest::deserialize(plaintext.value());
  if (!parsed.ok()) return error_response(Status::kTampered);
  const sgx::Measurement& mr = parsed.value().source_mr_enclave;
  const uint64_t nonce = parsed.value().request_nonce;
  const std::string& peer_address = it->second.source_address;

  // Only the ORIGINATING source ME may expire its own attempt, and never
  // once the data was handed to an enclave instance (the delivery pin's
  // fork prevention outranks everything).
  bool expired = false;
  bool delivered_block = false;
  const auto pending = pending_.find(mr);
  if (pending != pending_.end() && pending->second.request_nonce == nonce &&
      pending->second.source_me_address == peer_address) {
    if (pending->second.delivering_session == 0) {
      inbound_.erase(pending->second.transfer_id);
      pending_.erase(pending);
      expired = true;
    } else {
      delivered_block = true;
    }
  }
  const auto staging = precopy_staging_.find(mr);
  if (staging != precopy_staging_.end() &&
      staging->second.request_nonce == nonce &&
      staging->second.source_me_address == peer_address) {
    if (staging->second.transfer_id != req.id) {
      inbound_.erase(staging->second.transfer_id);
    }
    precopy_staging_.erase(staging);
    expired = true;
  }

  AbortVerdict verdict;
  verdict.safe = delivered_block ? 0 : 1;
  MeResponse resp;
  resp.status = Status::kOk;
  // Re-find: the erases above may have touched inbound_ (never this
  // one-shot entry, but keep the access defensive and obvious).
  const auto self = inbound_.find(req.id);
  if (self == inbound_.end() || !self->second.channel.has_value()) {
    return error_response(Status::kInvalidState);
  }
  resp.payload = self->second.channel->seal_record(verdict.serialize());
  // One-shot conversation, like reconcile.
  inbound_.erase(self);
  if (expired) {
    const Status persisted = persist_queue();
    if (persisted != Status::kOk) return error_response(persisted);
  }
  return resp;
}

size_t MigrationEnclave::sweep_stale_precopy_staging() {
  last_staging_sweep_ = platform().clock().now();
  if (precopy_staging_max_age_ == Duration::max()) return 0;
  size_t swept = 0;
  for (auto it = precopy_staging_.begin(); it != precopy_staging_.end();) {
    const Duration age =
        platform().clock().now() - it->second.last_update;
    if (age >= precopy_staging_max_age_) {
      // Staging is never handed to an enclave, so expiring it cannot
      // fork; a source that does come back re-ships the full set after
      // kPrecopyIncomplete.
      inbound_.erase(it->second.transfer_id);
      it = precopy_staging_.erase(it);
      ++swept;
    } else {
      ++it;
    }
  }
  if (swept > 0) persist_queue();
  return swept;
}

// ----- live pre-copy (source side) -----
//
// A pre-copy attempt is a TransferTask carrying its merged chunk set: it
// attests on the same posted resume / RA msg1 steps as a full snapshot,
// lands at kIdle, and then ships one round or finalize record at a time
// over its channel (the record sequence demands ordering).  A failed
// attest or hop drops it back to kQueued; the library's next round or
// finalize hears the failure, and the next kick re-attests under a fresh
// transfer id and resyncs.

Result<MigrationEnclave::TransferTask*> MigrationEnclave::precopy_task(
    const sgx::Measurement& source_mr, const std::string& destination,
    uint64_t nonce, const MigrationPolicy& policy,
    const std::vector<CounterChunk>& chunks) {
  if (destination == platform().address() || nonce == 0) {
    return Status::kInvalidParameter;
  }
  auto it = transfer_tasks_.find(nonce);
  if (it == transfer_tasks_.end()) {
    TransferTask task;
    task.source_mr = source_mr;
    task.request.destination_address = destination;
    task.request.request_nonce = nonce;
    task.precopy.emplace();
    it = transfer_tasks_.emplace(nonce, std::move(task)).first;
  } else if (!it->second.precopy.has_value() ||
             !(it->second.source_mr == source_mr) ||
             it->second.request.destination_address != destination) {
    // The nonce identifies one (identity, destination) pre-copy attempt:
    // the library draws a fresh one on any re-route.
    return Status::kInvalidParameter;
  }
  TransferTask& task = it->second;
  // A failed attest or hop since the last request answers this one, so
  // the orchestrator can re-route before the freeze; a retry re-attests.
  const Status failed = std::exchange(task.failure, Status::kOk);
  if (failed != Status::kOk) return failed;
  task.request.policy = policy;
  task.precopy->policy_known = true;
  merge_chunks(task.precopy->merged, chunks);
  return &task;
}

LibMsg MigrationEnclave::on_precopy_round(LaSessionState& session,
                                          const LibMsg& msg) {
  LibMsg reply;
  reply.type = LibMsgType::kError;
  auto parsed = PrecopyRoundPayload::deserialize(msg.payload);
  if (!parsed.ok()) return lib_error(Status::kTampered);
  const PrecopyRoundPayload& round = parsed.value();
  const uint64_t nonce = round.request_nonce;
  reply.status = precopy_task(session.peer.mr_enclave,
                              round.destination_address, nonce, round.policy,
                              round.chunks)
                     .status();
  if (async_precopy()) {
    // Pipelined round hop: persist the merge, ack the library at once,
    // and let the hop ship behind the pump — rounds of different enclaves
    // overlap on the source lane.  The ack means "merged and durable at
    // the SOURCE ME"; the finalize proves end-to-end completeness via the
    // manifest.
    if (reply.status == Status::kOk) reply.status = persist_queue();
    if (reply.status == Status::kOk) kick_precopy(nonce);
  } else {
    if (reply.status == Status::kOk) reply.status = ship_precopy_inline(nonce);
    if (reply.status == Status::kOk) reply.status = persist_queue();
  }
  if (reply.status == Status::kOk) reply.type = LibMsgType::kPrecopyAck;
  return reply;
}

std::vector<CounterChunk> MigrationEnclave::TransferTask::Precopy::unacked()
    const {
  std::vector<CounterChunk> chunks;
  for (const auto& [index, chunk] : merged) {
    const auto front = acked.find(index);
    if (resync || front == acked.end() || front->second < chunk.generation) {
      chunks.push_back(chunk);
    }
  }
  return chunks;
}

void MigrationEnclave::kick_precopy(uint64_t nonce) {
  const auto it = transfer_tasks_.find(nonce);
  if (it == transfer_tasks_.end()) return;
  TransferTask& task = it->second;
  TransferTask::Precopy& precopy = *task.precopy;
  if (task.step == TransferTask::Step::kQueued) {
    // First contact, a restored task, or a failed attest/hop: attest
    // afresh — but only with the policy of a library request.
    if (precopy.policy_known) kick_task(nonce);
    return;
  }
  if (task.step != TransferTask::Step::kIdle) return;
  auto* net = platform().network();
  if (net == nullptr) return fail_task(nonce, Status::kNetworkUnreachable);
  // Everything merged beyond the destination's acked front (on resync:
  // the whole merged set) rides along.  Once the library committed the
  // finalize, round hops are moot: the finalize record carries the rest,
  // and the manifest check at the destination proves completeness.
  const auto stamp = [&](auto& record) {
    record.source_mr_enclave = task.source_mr;
    record.source_me_address = platform().address();
    record.request_nonce = nonce;
    record.chunks = precopy.unacked();
  };
  MeRequest req;
  req.id = task.transfer_id;
  Bytes record_bytes;
  std::vector<ChunkManifestEntry> shipped;
  if (precopy.staged_finalize.has_value()) {
    PrecopyFinalizeRecord record;
    stamp(record);
    record.round = precopy.staged_finalize->round;
    record.manifest = precopy.staged_finalize->manifest;
    record.msk = precopy.staged_finalize->msk;
    record_bytes = record.serialize();
    req.type = MeMsgType::kPrecopyFinalize;
    task.step = TransferTask::Step::kAwaitFinalizeAck;
  } else {
    PrecopyChunkRecord record;
    stamp(record);
    if (record.chunks.empty()) return;
    for (const CounterChunk& chunk : record.chunks) {
      shipped.push_back({chunk.index, chunk.generation});
    }
    record.round = precopy.rounds;
    record_bytes = record.serialize();
    req.type = MeMsgType::kPrecopyChunk;
    task.step = TransferTask::Step::kAwaitRoundAck;
  }
  charge_gcm(record_bytes.size());
  req.payload = task.channel->seal_record(record_bytes);
  net->post(task.request.destination_address + "/me", req.serialize(),
            net_endpoint(),
            [this, nonce, transfer_id = task.transfer_id, step = task.step,
             shipped = std::move(shipped)](Result<Bytes> raw) {
              precopy_on_ack(nonce, transfer_id, step, shipped,
                             std::move(raw));
            });
}

void MigrationEnclave::precopy_on_ack(
    uint64_t nonce, uint64_t transfer_id, TransferTask::Step step,
    const std::vector<ChunkManifestEntry>& shipped, Result<Bytes> raw) {
  auto scope = continuation_ecall();
  const auto it = transfer_tasks_.find(nonce);
  // Stale: finalized/aborted, or superseded by a resync re-attest.
  if (it == transfer_tasks_.end() || it->second.step != step ||
      it->second.transfer_id != transfer_id) {
    return;
  }
  TransferTask& task = it->second;
  TransferTask::Precopy& precopy = *task.precopy;
  task.step = TransferTask::Step::kIdle;
  const bool finalize = step == TransferTask::Step::kAwaitFinalizeAck;
  if (finalize && !precopy.staged_finalize.has_value()) return;
  auto reply = open_task_reply(raw);
  auto ack = reply.ok() ? task.channel->open_record(reply.value())
                        : Result<Bytes>(reply.status());
  const char* marker = finalize ? kPrecopyFinMarker : kPrecopyAckMarker;
  const Status verdict = !ack.ok() ? ack.status()
                         : to_string(ack.value()) != marker
                             ? Status::kTampered
                             : Status::kOk;
  if (verdict != Status::kOk) {
    // kPrecopyIncomplete included: the next kick re-attests and re-ships
    // the full merged set.  The dropped channel and resync flag are
    // persisted, so an ME restart resumes the merged state.
    const bool shipped_all = precopy.unacked().size() == precopy.merged.size();
    fail_task(nonce, verdict);
    if (finalize && verdict == Status::kPrecopyIncomplete && shipped_all) {
      // That record already carried the whole merged set, so a resync
      // re-ships the same set and misses the manifest again: hand the
      // finalize back to the library at once, which re-ships its staged
      // set, instead of spending the ship budget.
      precopy.staged_finalize.reset();
    }
    persist_queue();
    return;
  }
  if (finalize) {
    const PrecopyFinalizePayload fin = std::move(*precopy.staged_finalize);
    // Erases the task; the library now observes kAccepted.
    finish_precopy_outgoing(nonce, fin);
    return;
  }
  precopy.resync = false;
  ++precopy.rounds;
  for (const ChunkManifestEntry& entry : shipped) {
    auto acked = precopy.acked.find(entry.index);
    if (acked == precopy.acked.end() || acked->second < entry.generation) {
      precopy.acked[entry.index] = entry.generation;
    }
  }
  // No re-seal here: rounds/acked/channel-sequence are reconstruction
  // state.  A restart restores the pre-ack snapshot and re-attests on the
  // next round, re-shipping the full merged set — the merge-side persist
  // (durable-before-ack) already holds every chunk.  Sealing the whole
  // queue once more per round ack would put O(queue) GCM work on the
  // source lane's critical path.  Rounds merged while this one was on
  // the wire ship immediately — or the finalize, if the library
  // committed one meanwhile.
  kick_precopy(nonce);
}

void MigrationEnclave::finish_precopy_outgoing(
    uint64_t nonce, const PrecopyFinalizePayload& fin) {
  TransferTask& live = transfer_tasks_.at(nonce);
  // The destination assembled the authoritative snapshot: retain the
  // equivalent full copy until DONE, exactly like a full-snapshot
  // transfer (§V-D), and retire the pre-copy task.
  MigrationData assembled;
  assembled.msk = fin.msk;
  for (const ChunkManifestEntry& entry : fin.manifest) {
    const auto chunk = live.precopy->merged.find(entry.index);
    if (chunk == live.precopy->merged.end()) continue;  // all inactive
    for (size_t s = 0; s < kPrecopyChunkSlots; ++s) {
      const size_t slot = entry.index * kPrecopyChunkSlots + s;
      assembled.counters_active[slot] = chunk->second.active[s];
      assembled.counter_values[slot] =
          chunk->second.active[s] ? chunk->second.values[s] : 0;
    }
  }
  OutgoingTransfer transfer;
  transfer.source_mr = live.source_mr;
  transfer.destination_address = live.request.destination_address;
  transfer.request_nonce = nonce;
  transfer.retained_data = assembled.serialize();
  transfer.channel = std::move(live.channel);
  transfer.sequence = next_outgoing_sequence_++;
  const uint64_t transfer_id = live.transfer_id;
  latest_outgoing_[transfer.source_mr] = {transfer.sequence,
                                          OutgoingState::kPending};
  outgoing_[transfer_id] = std::move(transfer);
  transfer_tasks_.erase(nonce);
  trace_task_step(platform(), nonce, "retained");
  persist_queue();
}

LibMsg MigrationEnclave::on_precopy_finalize_req(LaSessionState& session,
                                                 const LibMsg& msg) {
  LibMsg reply;
  reply.type = LibMsgType::kError;
  auto parsed = PrecopyFinalizePayload::deserialize(msg.payload);
  if (!parsed.ok()) return lib_error(Status::kTampered);
  const PrecopyFinalizePayload& fin = parsed.value();
  const uint64_t nonce = fin.request_nonce;
  const sgx::Measurement& mr = session.peer.mr_enclave;
  // Idempotent re-finalize: if this attempt already became a retained (or
  // completed) transfer — the previous reply was lost — acknowledge
  // without shipping again (re-fencing a retained entry, like
  // dedup_against_queue).
  const OutgoingFate fate = outgoing_fate(mr, nonce);
  if (fate.state != OutgoingState::kNone) {
    reply.status = fate.retained != nullptr ? persist_queue() : Status::kOk;
    if (reply.status == Status::kOk) {
      reply.type = LibMsgType::kFinalizeAccepted;
    }
    return reply;
  }
  auto task =
      precopy_task(mr, fin.destination_address, nonce, fin.policy, fin.chunks);
  if (!task.ok()) return lib_error(task.status());
  TransferTask::Precopy& precopy = *task.value()->precopy;
  // Staged behind any hop still on the wire: its ack (or the attest)
  // kicks the finalize in order on the same channel.
  precopy.staged_finalize = fin;
  precopy.finalize_attempts = 0;
  if (!async_precopy()) {
    reply.status = ship_precopy_inline(nonce);
    if (reply.status == Status::kOk) {
      reply.type = LibMsgType::kFinalizeAccepted;
    }
    return reply;
  }
  // Pipelined finalize hop: ack the library immediately with
  // kMigrateQueued — finalize ships of different enclaves overlap on the
  // source lane, and the library stays frozen polling its fate (the
  // freeze ends only once the destination's accept is observed).  The
  // final delta is durable before the queued-ack, like every round; only
  // the manifest+msk envelope is memory-only (restart => the frozen
  // library re-finalizes, dedup'd by nonce).
  reply.status = persist_queue();
  if (reply.status != Status::kOk) {
    precopy.staged_finalize.reset();
    return reply;
  }
  kick_precopy(nonce);
  reply.type = LibMsgType::kMigrateQueued;
  return reply;
}

// ----- synchronous hops: the step machines pumped inside one ecall -----

std::optional<sgx::Enclave::EcallScope>
MigrationEnclave::continuation_ecall() {
  if (pumping_inline_) return std::nullopt;
  return std::optional<EcallScope>(std::in_place, platform());
}

bool MigrationEnclave::can_pump_inline() {
  const auto* net = platform().network();
  return net == nullptr || !net->lane_scheduled();
}

bool MigrationEnclave::async_precopy() {
  return async_precopy_ || !can_pump_inline();
}

bool MigrationEnclave::precopy_settled(uint64_t nonce) const {
  const auto it = transfer_tasks_.find(nonce);
  return it == transfer_tasks_.end() ||
         it->second.step == TransferTask::Step::kIdle ||
         it->second.step == TransferTask::Step::kQueued;
}

bool MigrationEnclave::pump_inline(const std::function<bool()>& done) {
  auto* net = platform().network();
  const bool outer = pumping_inline_;
  pumping_inline_ = true;
  bool reached = done();
  while (!reached && net != nullptr && net->pump_one()) reached = done();
  pumping_inline_ = outer;
  return reached;
}

Status MigrationEnclave::ship_precopy_inline(uint64_t nonce) {
  while (true) {
    // Attest if needed, then the hop (a round with nothing dirty posts
    // nothing).  Every failed attest or hop spends ship budget while a
    // finalize is staged, so the loop ends.
    kick_precopy(nonce);
    if (!pump_inline([this, nonce] { return precopy_settled(nonce); })) {
      return Status::kNetworkUnreachable;
    }
    const auto it = transfer_tasks_.find(nonce);
    if (it == transfer_tasks_.end()) return Status::kOk;  // retired
    // A settled round, or a finalize whose ship budget is spent (the task
    // stays, channel dropped and resync set, for the library's retry).
    if (!it->second.precopy->staged_finalize.has_value()) {
      return std::exchange(it->second.failure, Status::kOk);
    }
  }
}

// ----- incoming migration (destination side) -----

MeResponse MigrationEnclave::on_ra_msg1(const MeRequest& req) {
  // A colliding transfer id must not clobber a live inbound transfer.
  if (inbound_.count(req.id) != 0) {
    return error_response(Status::kAlreadyExists);
  }
  auto msg1 = sgx::RaMsg1::deserialize(req.payload);
  if (!msg1.ok()) return error_response(Status::kTampered);
  InboundTransfer inbound;
  inbound.ra = std::make_unique<sgx::RaSession>(
      platform(), identity(), sgx::RaSession::Role::kResponder);
  auto msg2 = inbound.ra->handle_msg1(msg1.value());
  if (!msg2.ok()) return error_response(msg2.status());
  MeResponse resp;
  resp.status = Status::kOk;
  resp.payload = msg2.value().serialize();
  inbound_[req.id] = std::move(inbound);
  return resp;
}

MeResponse MigrationEnclave::on_ra_msg3(const MeRequest& req) {
  const auto it = inbound_.find(req.id);
  if (it == inbound_.end() || it->second.ra == nullptr) {
    // Unknown id, or an entry restored from the durable queue (its RA
    // handshake finished in a previous ME lifetime).
    return error_response(Status::kInvalidState);
  }
  InboundTransfer& inbound = it->second;

  auto bundle = RaMsg3Bundle::deserialize(req.payload);
  if (!bundle.ok()) return error_response(Status::kTampered);
  auto msg3 = sgx::RaMsg3::deserialize(bundle.value().msg3);
  if (!msg3.ok()) return error_response(Status::kTampered);
  const Status ra_status = inbound.ra->handle_msg3(msg3.value());
  if (ra_status != Status::kOk) {
    inbound_.erase(it);
    return error_response(ra_status);
  }
  // Peer ME identity check (mirror of the outgoing side).
  if (!(inbound.ra->peer_identity().mr_enclave == identity().mr_enclave)) {
    inbound_.erase(it);
    return error_response(Status::kIdentityMismatch);
  }
  // Source provider authentication.
  auto auth = ProviderAuth::deserialize(bundle.value().provider_auth);
  if (!auth.ok()) {
    inbound_.erase(it);
    return error_response(Status::kTampered);
  }
  std::string source_region;
  const Status auth_status = verify_provider_auth(
      auth.value(), inbound.ra->transcript_hash(),
      /*expected_address=*/auth.value().credential.address, &source_region);
  if (auth_status != Status::kOk) {
    inbound_.erase(it);
    return error_response(auth_status);
  }
  // Machine-level incoming policy.
  if (!allowed_source_regions_.empty()) {
    bool allowed = false;
    for (const auto& region : allowed_source_regions_) {
      if (region == source_region) allowed = true;
    }
    if (!allowed) {
      inbound_.erase(it);
      return error_response(Status::kPolicyViolation);
    }
  }
  inbound.source_region = source_region;
  inbound.source_address = auth.value().credential.address;
  inbound.authenticated = true;
  inbound.channel.emplace(inbound.ra->session_key(),
                          net::SecureChannel::Role::kResponder);

  // Register the resume acceptor for this (verified) peer: a later
  // kSessionResume from the same certified address can re-key without the
  // full handshake.  Memory-only — a restart forgets it deliberately.
  ResumeAcceptor acceptor;
  acceptor.master_key = inbound.ra->session_key();
  acceptor.source_region = source_region;
  acceptor.source_address = inbound.source_address;
  resume_acceptors_[inbound.source_address] = std::move(acceptor);

  RaMsg3Reply reply;
  reply.provider_auth = make_provider_auth(inbound.ra->transcript_hash());
  reply.responder_epoch = instance_epoch_;
  MeResponse resp;
  resp.status = Status::kOk;
  resp.payload = reply.serialize();
  return resp;
}

MeResponse MigrationEnclave::on_transfer(const MeRequest& req) {
  const auto it = inbound_.find(req.id);
  if (it == inbound_.end() || !it->second.authenticated) {
    return error_response(Status::kInvalidState);
  }
  InboundTransfer& inbound = it->second;
  auto plaintext = inbound.channel->open_record(req.payload);
  if (!plaintext.ok()) return error_response(plaintext.status());
  charge_gcm(plaintext.value().size());
  auto payload = TransferPayload::deserialize(plaintext.value());
  if (!payload.ok()) return error_response(Status::kTampered);

  // One pending migration per enclave identity at a time, with this
  // migration's own lost-ACCEPTED orphan superseded and foreign
  // undelivered orphans given a reconciliation sweep (free_pending_slot).
  const Status slot = free_pending_slot(
      payload.value().source_mr_enclave, payload.value().request_nonce,
      payload.value().source_me_address, req.id);
  if (slot != Status::kOk) return error_response(slot);
  PendingIncoming pending;
  pending.transfer_id = req.id;
  pending.data = payload.value().data;
  pending.source_me_address = payload.value().source_me_address;
  pending.request_nonce = payload.value().request_nonce;
  pending_[payload.value().source_mr_enclave] = std::move(pending);
  // A full-snapshot transfer supersedes any abandoned pre-copy staging of
  // the same identity (the library froze and shipped everything).
  precopy_staging_.erase(payload.value().source_mr_enclave);

  MeResponse resp;
  resp.status = Status::kOk;
  // Seal the ACCEPTED ack BEFORE snapshotting: the snapshot must capture
  // the channel's post-ack sequence numbers, or a DONE sealed after a
  // restart would fail the source's replay check.  The pending entry (and
  // the inbound channel that will seal the DONE) are then made durable
  // before the ack leaves this enclave and releases the source side.
  resp.payload =
      inbound.channel->seal_record(to_bytes(std::string_view(kAcceptedMarker)));
  const Status persisted = persist_queue();
  if (persisted != Status::kOk) return error_response(persisted);
  return resp;
}

// ----- live pre-copy (destination side) -----

MigrationEnclave::PrecopyStaging& MigrationEnclave::merge_precopy_staging(
    const sgx::Measurement& mr, const std::string& source_me_address,
    uint64_t nonce, uint64_t transfer_id,
    const std::vector<CounterChunk>& chunks) {
  auto staging = precopy_staging_.find(mr);
  if (staging != precopy_staging_.end() &&
      (staging->second.request_nonce != nonce ||
       staging->second.source_me_address != source_me_address)) {
    // A fresh nonce is a NEW logical migration attempt: the old staging
    // was abandoned (re-route, restarted pre-copy).  Unlike a pending
    // entry, staging is never handed to an enclave, so superseding it
    // cannot fork — drop it with its orphaned channel.
    if (staging->second.transfer_id != transfer_id) {
      inbound_.erase(staging->second.transfer_id);
    }
    precopy_staging_.erase(staging);
    staging = precopy_staging_.end();
  }
  if (staging == precopy_staging_.end()) {
    PrecopyStaging fresh;
    fresh.source_me_address = source_me_address;
    fresh.request_nonce = nonce;
    staging = precopy_staging_.emplace(mr, std::move(fresh)).first;
  }
  PrecopyStaging& entry = staging->second;
  if (entry.transfer_id != transfer_id) {
    // The source re-attested (lost ack / channel desync): the previous
    // inbound channel for this attempt is dead.
    if (entry.transfer_id != 0) inbound_.erase(entry.transfer_id);
    entry.transfer_id = transfer_id;
  }
  merge_chunks(entry.chunks, chunks);
  entry.last_update = platform().clock().now();
  return entry;
}

Status MigrationEnclave::free_pending_slot(const sgx::Measurement& mr,
                                           uint64_t nonce,
                                           const std::string& source_me_address,
                                           uint64_t arriving_transfer_id) {
  const auto existing = pending_.find(mr);
  if (existing == pending_.end()) return Status::kOk;
  // A re-transfer of the same logical migration (same source ME + nonce):
  // the previous attempt's ACCEPTED ack was lost, the source retained
  // nothing and retries under a fresh transfer id — supersede its own
  // orphan.  Once a session has fetched the old entry, superseding is
  // refused (the delivery pin's fork prevention outranks the retry).
  const bool same_migration =
      nonce != 0 && existing->second.request_nonce == nonce &&
      existing->second.source_me_address == source_me_address;
  if (same_migration && existing->second.delivering_session == 0) {
    if (existing->second.transfer_id != arriving_transfer_id) {
      inbound_.erase(existing->second.transfer_id);
    }
    pending_.erase(existing);
    return Status::kOk;
  }
  // An undelivered entry from a DIFFERENT logical migration gets one
  // (rate-limited) reconciliation sweep against its originating source
  // ME before it is allowed to block: the lost-ACCEPTED re-route orphan
  // case, where the identity completed elsewhere and this entry is
  // stale.  reconcile_pending erases the expired entry itself.
  if (!same_migration && existing->second.delivering_session == 0 &&
      reconcile_pending(mr) == Status::kOk) {
    return Status::kOk;
  }
  return Status::kAlreadyExists;
}

MeResponse MigrationEnclave::on_precopy_chunk(const MeRequest& req) {
  const auto it = inbound_.find(req.id);
  if (it == inbound_.end() || !it->second.authenticated) {
    return error_response(Status::kInvalidState);
  }
  InboundTransfer& inbound = it->second;
  auto plaintext = inbound.channel->open_record(req.payload);
  if (!plaintext.ok()) return error_response(plaintext.status());
  charge_gcm(plaintext.value().size());
  auto parsed = PrecopyChunkRecord::deserialize(plaintext.value());
  if (!parsed.ok()) return error_response(Status::kTampered);
  const PrecopyChunkRecord& record = parsed.value();
  if (record.request_nonce == 0) {
    return error_response(Status::kInvalidParameter);
  }

  PrecopyStaging& entry = merge_precopy_staging(
      record.source_mr_enclave, record.source_me_address,
      record.request_nonce, req.id, record.chunks);
  if (record.round + 1 > entry.rounds) entry.rounds = record.round + 1;

  MeResponse resp;
  resp.status = Status::kOk;
  // Ack sealed BEFORE the snapshot so the persisted channel sequence
  // numbers are post-ack (mirrors on_transfer).
  resp.payload = inbound.channel->seal_record(
      to_bytes(std::string_view(kPrecopyAckMarker)));
  const Status persisted = persist_queue();
  if (persisted != Status::kOk) return error_response(persisted);
  return resp;
}

MeResponse MigrationEnclave::on_precopy_finalize(const MeRequest& req) {
  const auto it = inbound_.find(req.id);
  if (it == inbound_.end() || !it->second.authenticated) {
    return error_response(Status::kInvalidState);
  }
  InboundTransfer& inbound = it->second;
  auto plaintext = inbound.channel->open_record(req.payload);
  if (!plaintext.ok()) return error_response(plaintext.status());
  charge_gcm(plaintext.value().size());
  auto parsed = PrecopyFinalizeRecord::deserialize(plaintext.value());
  if (!parsed.ok()) return error_response(Status::kTampered);
  const PrecopyFinalizeRecord& record = parsed.value();
  if (record.request_nonce == 0) {
    return error_response(Status::kInvalidParameter);
  }
  const sgx::Measurement& mr = record.source_mr_enclave;

  // Fold the final delta into the staged rounds (same supersede rules as
  // a mid-pre-copy chunk).
  PrecopyStaging& entry = merge_precopy_staging(mr, record.source_me_address,
                                                record.request_nonce, req.id,
                                                record.chunks);

  // Manifest check: the staged set must cover EXACTLY what the library
  // shipped.  A lost round (or a wiped queue) must fail loudly here — a
  // silently truncated Table II would restore counters at stale values,
  // breaking the very replay protection the counters exist for.  The
  // source answers kPrecopyIncomplete by re-shipping the full set.
  for (const ChunkManifestEntry& expected : record.manifest) {
    const auto chunk = entry.chunks.find(expected.index);
    if (chunk == entry.chunks.end() ||
        chunk->second.generation != expected.generation) {
      return error_response(Status::kPrecopyIncomplete);
    }
  }

  // Assemble the authoritative snapshot: manifest chunks + MSK.
  MigrationData assembled;
  assembled.msk = record.msk;
  for (const ChunkManifestEntry& expected : record.manifest) {
    const CounterChunk& chunk = entry.chunks.at(expected.index);
    for (size_t s = 0; s < kPrecopyChunkSlots; ++s) {
      const size_t slot = expected.index * kPrecopyChunkSlots + s;
      assembled.counters_active[slot] = chunk.active[s];
      assembled.counter_values[slot] = chunk.active[s] ? chunk.values[s] : 0;
    }
  }

  // Same one-pending-per-identity rules as on_transfer, including the
  // reconciliation sweep for a foreign undelivered orphan.
  const Status slot = free_pending_slot(mr, record.request_nonce,
                                        record.source_me_address, req.id);
  if (slot != Status::kOk) return error_response(slot);

  PendingIncoming pending;
  pending.transfer_id = req.id;
  pending.data = std::move(assembled);
  pending.source_me_address = record.source_me_address;
  pending.request_nonce = record.request_nonce;
  pending_[mr] = std::move(pending);
  precopy_staging_.erase(mr);

  MeResponse resp;
  resp.status = Status::kOk;
  resp.payload = inbound.channel->seal_record(
      to_bytes(std::string_view(kPrecopyFinMarker)));
  const Status persisted = persist_queue();
  if (persisted != Status::kOk) return error_response(persisted);
  return resp;
}

// ----- pending-entry reconciliation (lost-ACCEPTED re-route orphans) ----

Status MigrationEnclave::reconcile_pending(const sgx::Measurement& mr) {
  const auto it = pending_.find(mr);
  if (it == pending_.end()) return Status::kNoPendingMigration;
  // Delivered (or delivering) data is protected by the pin, never swept.
  if (it->second.delivering_session != 0) return Status::kMigrationInProgress;
  // Legacy entries without a nonce cannot be identified to the source.
  if (it->second.request_nonce == 0) return Status::kInvalidState;
  const std::string source_address = it->second.source_me_address;
  const uint64_t nonce = it->second.request_nonce;
  if (source_address == platform().address()) return Status::kInvalidState;
  // Rate limit: a LIVE entry blocking a busy-retrying peer (the common
  // same-image serialization) must not cost one RA handshake per retry
  // just to re-learn it is live.
  const Duration now_ = platform().clock().now();
  if (it->second.last_reconcile != Duration{} &&
      now_ - it->second.last_reconcile < reconcile_retry_interval_) {
    return Status::kMigrationInProgress;
  }
  it->second.last_reconcile = now_;

  // Ask the originating source ME over a fresh attested channel.
  ReconcileQuery query;
  query.source_mr_enclave = mr;
  query.request_nonce = nonce;
  auto reply = query_peer_me<ReconcileReply>(
      source_address, MeMsgType::kReconcile, query.serialize());
  if (!reply.ok()) return reply.status();
  if (reply.value().verdict != ReconcileVerdict::kSuperseded) {
    return Status::kMigrationInProgress;
  }
  // The source ME vouches the identity completed a NEWER transfer and
  // knows nothing live about this nonce: the entry is stale
  // pre-migration state a future instance must never fetch.  Expire it.
  // (Re-find after the nested rpc; reentrant traffic may have advanced
  // this queue in the meantime.)
  const auto stale = pending_.find(mr);
  if (stale == pending_.end() || stale->second.request_nonce != nonce ||
      stale->second.delivering_session != 0) {
    return Status::kMigrationInProgress;
  }
  inbound_.erase(stale->second.transfer_id);
  pending_.erase(stale);
  return persist_queue();
}

size_t MigrationEnclave::reconcile_all_pending() {
  std::vector<sgx::Measurement> mrs;
  mrs.reserve(pending_.size());
  for (const auto& [mr, entry] : pending_) mrs.push_back(mr);
  for (const sgx::Measurement& mr : mrs) reconcile_pending(mr);
  return pending_.size();
}

size_t MigrationEnclave::sweep_superseded_outgoing() {
  // Same supersede criterion as on_reconcile's verdict, applied to this
  // ME's OWN source-side queues: positive evidence the identity moved on
  // (a completion record under another nonce), none that this attempt
  // won.  A restarted ME re-ships retained entries, so leaving a
  // superseded one behind would re-create the orphan at its destination.
  size_t expired = 0;
  for (auto it = outgoing_.begin(); it != outgoing_.end();) {
    if (moved_on(it->second.source_mr, it->second.request_nonce)) {
      it = drop_outgoing(it);
      ++expired;
    } else {
      ++it;
    }
  }
  for (auto it = transfer_tasks_.begin(); it != transfer_tasks_.end();) {
    if (moved_on(it->second.source_mr, it->first)) {
      it = transfer_tasks_.erase(it);
      ++expired;
    } else {
      ++it;
    }
  }
  if (expired != 0) persist_queue();
  return expired;
}

MeResponse MigrationEnclave::on_reconcile(const MeRequest& req) {
  const auto it = inbound_.find(req.id);
  if (it == inbound_.end() || !it->second.authenticated) {
    return error_response(Status::kInvalidState);
  }
  auto plaintext = it->second.channel->open_record(req.payload);
  if (!plaintext.ok()) return error_response(plaintext.status());
  auto parsed = ReconcileQuery::deserialize(plaintext.value());
  if (!parsed.ok()) return error_response(Status::kTampered);
  const sgx::Measurement& mr = parsed.value().source_mr_enclave;
  const uint64_t nonce = parsed.value().request_nonce;

  const auto task = transfer_tasks_.find(nonce);
  const bool nonce_live =
      outgoing_fate(mr, nonce).state == OutgoingState::kPending ||
      (task != transfer_tasks_.end() && task->second.source_mr == mr);
  // Superseded = this ME has POSITIVE evidence the identity moved on (a
  // completed transfer under another nonce) and no live or completed
  // record of the queried attempt.  Anything ambiguous — including a
  // wiped history, where the pending copy might be the only one left —
  // keeps the entry.
  ReconcileReply reply;
  reply.verdict = (!nonce_live && moved_on(mr, nonce))
                      ? ReconcileVerdict::kSuperseded
                      : ReconcileVerdict::kStillLive;
  MeResponse resp;
  resp.status = Status::kOk;
  resp.payload = it->second.channel->seal_record(reply.serialize());
  // One-shot session: the reconcile conversation ends here.
  inbound_.erase(it);
  return resp;
}

MeResponse MigrationEnclave::on_done(const MeRequest& req) {
  // Duplicate DONE for a transfer already confirmed (the destination
  // retries its relay until acknowledged): idempotent success.  The
  // channel was wiped with the entry, so the record cannot be re-checked;
  // acknowledging reveals nothing and changes no state.
  if (completed_outgoing_.count(req.id) != 0) {
    MeResponse resp;
    resp.status = Status::kOk;
    return resp;
  }
  const auto it = outgoing_.find(req.id);
  if (it == outgoing_.end()) return error_response(Status::kInvalidState);
  OutgoingTransfer& transfer = it->second;
  auto plaintext = transfer.channel->open_record(req.payload);
  if (!plaintext.ok()) return error_response(plaintext.status());
  auto done = DoneRecord::deserialize(plaintext.value());
  if (!done.ok() || done.value().transfer_id != req.id) {
    return error_response(Status::kTampered);
  }
  // Destination confirmed: wipe the retained migration data and retire
  // the queue entry, keeping only the compact completion record (status
  // queries + duplicate-DONE idempotency).  Erasing terminal transfers is
  // what keeps the queue bounded over a long drain.
  secure_wipe(transfer.retained_data);
  const auto latest = latest_outgoing_.find(transfer.source_mr);
  if (latest != latest_outgoing_.end() &&
      latest->second.first == transfer.sequence) {
    latest->second.second = OutgoingState::kCompleted;
  }
  // Bound the per-identity index: once it overflows, forget the
  // longest-completed identity (a status query then reports kNone — the
  // same answer a freshly deployed ME would give).  Pending identities
  // are never evicted; they still hold retained data.
  constexpr size_t kLatestOutgoingLimit = 4096;
  if (latest_outgoing_.size() > kLatestOutgoingLimit) {
    auto oldest = latest_outgoing_.end();
    for (auto it2 = latest_outgoing_.begin(); it2 != latest_outgoing_.end();
         ++it2) {
      if (it2->second.second != OutgoingState::kCompleted) continue;
      if (oldest == latest_outgoing_.end() ||
          it2->second.first < oldest->second.first) {
        oldest = it2;
      }
    }
    if (oldest != latest_outgoing_.end()) latest_outgoing_.erase(oldest);
  }
  record_completed(req.id, transfer);
  // The migrated-away instance behind this transfer is frozen for good;
  // its LA sessions would otherwise linger until process exit.
  drop_sessions_for(transfer.source_mr);
  outgoing_.erase(it);
  const Status persisted = persist_queue();
  if (persisted != Status::kOk) return error_response(persisted);
  MeResponse resp;
  resp.status = Status::kOk;
  return resp;
}

// ----- durable transfer queue -----

Duration MigrationEnclave::now() const {
  // PlatformIface::clock() is non-const (it can advance); reading the
  // current virtual time mutates nothing.
  return const_cast<MigrationEnclave*>(this)->platform().clock().now();
}

Status MigrationEnclave::commit_state() {
  if (!queue_seal_ctx_.has_value()) {
    queue_seal_ctx_.emplace(make_seal_context(sgx::KeyPolicy::kMrEnclave));
  }
  Bytes plaintext = serialize_queue();
  auto sealed = seal_with(*queue_seal_ctx_,
                          to_bytes(std::string_view(kQueueAad)), plaintext);
  // The plaintext snapshot embeds every live channel's raw session key.
  secure_wipe(plaintext);
  if (!sealed.ok()) return sealed.status();
  sealed_queue_state_ = std::move(sealed).value();
  if (queue_persist_callback_) {
    // OCALL to the untrusted host, which writes the blob to disk.
    platform().charge(platform().costs().ocall);
    queue_persist_callback_(sealed_queue_state_);
  }
  return Status::kOk;
}

Status MigrationEnclave::persist_queue() {
  // Every queue transition guards either retained migration data or a
  // fork-preventing erase, so each one is fenced durable regardless of
  // the configured engine (mirrors persist_mutation_durable in the ML).
  const Status status = engine_->on_mutation(*this, MutationKind::kTransferQueue);
  if (status != Status::kOk) return status;
  return engine_->flush(*this);
}

namespace {

// A channel snapshot, length-prefixed; decoding builds the channel in
// place, so no temporary ever holds its raw session key.
template <class Io, class Channel>
void channel_field(Io& io, Channel& channel) {
  if constexpr (Io::kReading) {
    channel.emplace(sgx::Key128{}, net::SecureChannel::Role::kInitiator);
  }
  io.nested(*channel, 64);
}

// An optional channel: a presence flag first.
template <class Io, class Channel>
void optional_channel(Io& io, Channel& channel) {
  bool present = channel.has_value();
  io.boolean(present);
  if (present) channel_field(io, channel);
}

template <class Io, class D>
void duration_field(Io& io, D& duration) {
  uint64_t ticks = static_cast<uint64_t>(duration.count());
  io.u64(ticks);
  if constexpr (Io::kReading) duration = Duration(static_cast<int64_t>(ticks));
}

// The entry `key` of a history map written in the order of its FIFO: an
// existing entry while encoding, a fresh one while decoding.
template <class M, class K>
decltype(auto) history_entry(M& m, const K& key) {
  if constexpr (std::is_const_v<M>) {
    return m.at(key);
  } else {
    return (m[key]);
  }
}

}  // namespace

/// What apply_queue decodes into: the durable sections under the names
/// they have on the ME, so one queue_layout serves both directions.  The
/// ME installs it only once the whole snapshot parsed.
struct MigrationEnclave::QueueImage {
  uint64_t next_outgoing_sequence_ = 0;
  std::map<uint64_t, OutgoingTransfer> outgoing_;
  std::map<sgx::Measurement, PendingIncoming> pending_;
  std::map<uint64_t, InboundTransfer> inbound_;
  std::map<sgx::Measurement, std::pair<uint64_t, OutgoingState>>
      latest_outgoing_;
  std::map<uint64_t, CompletedOutgoing> completed_outgoing_;
  std::deque<uint64_t> completed_order_;
  std::map<sgx::Measurement, uint64_t> confirmed_incoming_;
  std::deque<sgx::Measurement> confirmed_incoming_order_;
  std::map<uint64_t, DoneRelay> done_relays_;
  std::map<uint64_t, TransferTask> transfer_tasks_;
  std::map<sgx::Measurement, PrecopyStaging> precopy_staging_;
  std::map<std::string, PeerSession> peer_sessions_;
};

template <class Io, class Q>
void MigrationEnclave::queue_layout(Io& io, Q& q) {
  io.magic(kQueueMagic);
  io.u64(q.next_outgoing_sequence_);

  io.map(q.outgoing_, [](Io& w, auto& id, auto& t) {
    w.u64(id);
    w.fixed(t.source_mr);
    w.str(t.destination_address, 256);
    w.u64(t.request_nonce);
    w.bytes(t.retained_data, 1u << 20);
    w.u64(t.sequence);
    optional_channel(w, t.channel);
  });

  // delivering_session is deliberately NOT persisted: LA sessions die
  // with the ME process, so delivery re-arms after a restart.
  io.map(q.pending_, [](Io& w, auto& mr, auto& p) {
    w.fixed(mr);
    w.u64(p.transfer_id);
    w.nested(p.data, 1u << 20);
    w.str(p.source_me_address, 256);
    w.u64(p.request_nonce);
  });

  // Inbound transfers that completed authentication: their channel is
  // what decrypts the (re)sent transfer record and seals the DONE relay.
  io.map_if(
      q.inbound_,
      [](const auto& in) { return in.authenticated && in.channel.has_value(); },
      [](Io& w, auto& id, auto& in) {
        w.u64(id);
        if constexpr (Io::kReading) in.authenticated = true;
        w.str(in.source_region, 256);
        w.str(in.source_address, 256);  // authorizes source-scoped aborts
        channel_field(w, in.channel);
      });

  io.map(q.latest_outgoing_, [](Io& w, auto& mr, auto& state) {
    w.fixed(mr);
    w.u64(state.first);
    outgoing_state_field(w, state.second);
  });

  io.list(q.completed_order_, kCompletedHistoryLimit, [&q](Io& w, auto& id) {
    w.u64(id);
    auto& record = history_entry(q.completed_outgoing_, id);
    w.fixed(record.source_mr);
    w.u64(record.request_nonce);
    w.u64(record.sequence);
  });

  io.list(q.confirmed_incoming_order_, kCompletedHistoryLimit,
          [&q](Io& w, auto& mr) {
            w.fixed(mr);
            w.u64(history_entry(q.confirmed_incoming_, mr));
          });

  io.map(q.done_relays_, [](Io& w, auto& id, auto& relay) {
    w.u64(id);
    w.str(relay.source_me_address, 256);
    w.bytes(relay.sealed_record, 1u << 16);
  });

  // ----- live pre-copy state -----
  // Source-side pre-copy tasks (merged chunk sets + RA channels) and
  // destination staging: an ME restart between rounds RESUMES the
  // pre-copy instead of throwing away every round already shipped.  The
  // tasks restore at kQueued WITHOUT a policy: the restored channel may
  // be stale (round acks are not persisted), so the task re-attests —
  // with the policy of the library's next round or finalize.
  io.map_if(
      q.transfer_tasks_, [](const auto& t) { return t.precopy.has_value(); },
      [](Io& w, auto& nonce, auto& t) {
        w.u64(nonce);
        if constexpr (Io::kReading) {
          t.precopy.emplace();
          t.request.request_nonce = nonce;
        }
        w.fixed(t.source_mr);
        w.str(t.request.destination_address, 256);
        w.u64(t.transfer_id);
        w.u32(t.precopy->rounds);
        w.boolean(t.precopy->resync);
        w.keyed(t.precopy->merged, kPrecopyChunkCount, &CounterChunk::index);
        optional_channel(w, t.channel);
      });
  io.map(q.precopy_staging_, [](Io& w, auto& mr, auto& s) {
    w.fixed(mr);
    w.u64(s.transfer_id);
    w.str(s.source_me_address, 256);
    w.u64(s.request_nonce);
    w.u32(s.rounds);
    w.keyed(s.chunks, kPrecopyChunkCount, &CounterChunk::index);
    duration_field(w, s.last_update);  // sweep age
  });

  // ----- full-snapshot TransferTasks -----
  // Only the durable identity of each task (who, where, what data, which
  // nonce): attestation state is per-attempt, so a restarted ME resumes
  // every pipeline from the attest step (kQueued) under a fresh transfer
  // id; an unarmed reservation re-parks at kAwaitArm, and the nonce keeps
  // the end-to-end result exactly-once.
  io.map_if(
      q.transfer_tasks_,
      [](const auto& t) { return t.durable && !t.precopy.has_value(); },
      [](Io& w, auto& nonce, auto& t) {
        w.u64(nonce);
        w.fixed(t.source_mr);
        w.nested(t.request, 1u << 21);
        w.boolean(t.armed);
      });

  // ----- cached ME<->ME attestation sessions -----
  // Master keys ride the sealed snapshot like channel keys do; losing an
  // entry only costs one full handshake.  Acceptor-side state is
  // deliberately NOT persisted (a restarted responder must force the full
  // handshake — that is the anti-fork evidence the initiator relies on).
  io.map(q.peer_sessions_, [](Io& w, auto& address, auto& s) {
    w.str(address, 256);
    w.fixed(s.master_key);
    w.u64(s.peer_epoch);
    platform::MachineCredential::layout(w, s.credential);
    w.str(s.region, 256);
  });
}

Bytes MigrationEnclave::serialize_queue() const {
  BinaryWriter w;
  queue_layout(w, *this);
  return w.take();
}

Status MigrationEnclave::apply_queue(ByteView plaintext) {
  QueueImage q;
  BinaryReader r(plaintext);
  queue_layout(r, q);
  if (!r.done()) return Status::kTampered;
  next_outgoing_sequence_ = q.next_outgoing_sequence_;
  outgoing_ = std::move(q.outgoing_);
  pending_ = std::move(q.pending_);
  inbound_ = std::move(q.inbound_);
  latest_outgoing_ = std::move(q.latest_outgoing_);
  completed_outgoing_ = std::move(q.completed_outgoing_);
  completed_order_ = std::move(q.completed_order_);
  confirmed_incoming_ = std::move(q.confirmed_incoming_);
  confirmed_incoming_order_ = std::move(q.confirmed_incoming_order_);
  done_relays_ = std::move(q.done_relays_);
  precopy_staging_ = std::move(q.precopy_staging_);
  transfer_tasks_ = std::move(q.transfer_tasks_);
  peer_sessions_ = std::move(q.peer_sessions_);
  return Status::kOk;
}

Status MigrationEnclave::restore_queue(ByteView sealed_queue) {
  auto scope = enter_ecall();
  auto unsealed = unseal(sealed_queue);
  if (!unsealed.ok()) return unsealed.status();
  if (to_string(unsealed.value().aad) != kQueueAad) return Status::kTampered;
  const Status status = apply_queue(unsealed.value().plaintext);
  // The unsealed snapshot embeds raw channel session keys.
  secure_wipe(unsealed.value().plaintext);
  return status;
}

// ----- provider authentication helpers -----

ProviderAuth MigrationEnclave::make_provider_auth(
    const std::array<uint8_t, 32>& transcript) {
  ProviderAuth auth;
  auth.credential = credential_;
  auth.transcript_signature =
      machine_key_.sign(provider_auth_message(transcript));
  return auth;
}

Status MigrationEnclave::verify_provider_auth(
    const ProviderAuth& auth, const std::array<uint8_t, 32>& transcript,
    const std::string& expected_address, std::string* region_out) {
  // 1. The credential must be issued by our cloud provider's CA.
  if (!platform::ProviderCa::verify(provider_ca_key_, auth.credential)) {
    return Status::kProviderAuthFailure;
  }
  // 2. It must be bound to the machine we think we are talking to.
  if (auth.credential.address != expected_address) {
    return Status::kProviderAuthFailure;
  }
  // 3. The certified machine key must have signed THIS session transcript
  //    (freshness: no replaying certificates from other sessions).
  if (!crypto::ed25519_verify(auth.credential.machine_public_key,
                              provider_auth_message(transcript),
                              auth.transcript_signature)) {
    return Status::kProviderAuthFailure;
  }
  if (region_out != nullptr) *region_out = auth.credential.region;
  return Status::kOk;
}

// ----- durable-ME deployment helpers -----

namespace {
std::string me_queue_key(const platform::Machine& machine) {
  return machine.address() + ".me-queue";
}
}  // namespace

platform::Machine::MgmtEnclaveFactory durable_me_factory(
    platform::ProviderCa& provider) {
  return [&provider](platform::Machine& machine)
             -> std::unique_ptr<sgx::Enclave> {
    auto me = std::make_unique<MigrationEnclave>(
        machine, MigrationEnclave::standard_image(), provider);
    const std::string key = me_queue_key(machine);
    me->set_queue_persist_callback([&machine, key](ByteView blob) {
      // Versioned two-slot write: a crash mid-persist leaves the previous
      // intact snapshot recoverable.
      machine.storage().put_versioned(key, blob);
    });
    auto stored = machine.storage().get_versioned(key);
    if (stored.ok()) {
      // A snapshot that fails to unseal/parse leaves the ME with an empty
      // queue (availability): retained copies at the peer MEs still hold
      // every in-flight migration's data.
      (void)me->restore_queue(stored.value());
    }
    return me;
  };
}

MigrationEnclave* install_durable_me(platform::Machine& machine,
                                     platform::ProviderCa& provider) {
  machine.install_management_enclave(durable_me_factory(provider));
  return me_on(machine);
}

MigrationEnclave* me_on(platform::Machine& machine) {
  return dynamic_cast<MigrationEnclave*>(machine.management_enclave());
}

}  // namespace sgxmig::migration
