// Serialization tests for every protocol message type (docs/PROTOCOL.md):
// round trips, boundary values, and rejection of malformed/truncated/
// trailing-garbage encodings — the parsing layer faces the raw network.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "apps/teechan.h"
#include "apps/trinx.h"
#include "crypto/sha256.h"
#include "migration/library_state.h"
#include "migration/migratable_enclave.h"
#include "migration/migration_enclave.h"
#include "migration/protocol.h"
#include "net/channel.h"
#include "platform/world.h"
#include "sgx/dh.h"
#include "sgx/ias.h"
#include "sgx/pse_wire.h"
#include "sgx/remote_attestation.h"
#include "support/rng.h"

namespace sgxmig::migration {
namespace {

TEST(ProtocolSerde, MeRequestRoundTrip) {
  MeRequest req;
  req.type = MeMsgType::kTransfer;
  req.id = 0x0123456789abcdefULL;
  req.payload = to_bytes(std::string_view("opaque record"));
  auto back = MeRequest::deserialize(req.serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().type, req.type);
  EXPECT_EQ(back.value().id, req.id);
  EXPECT_EQ(back.value().payload, req.payload);
}

TEST(ProtocolSerde, MeRequestRejectsUnknownType) {
  MeRequest req;
  req.type = MeMsgType::kLaStart;
  Bytes bytes = req.serialize();
  bytes[0] = 0;  // type 0 invalid
  EXPECT_FALSE(MeRequest::deserialize(bytes).ok());
  bytes[0] = 13;  // one past kSessionResume, the highest valid type
  EXPECT_FALSE(MeRequest::deserialize(bytes).ok());
}

TEST(ProtocolSerde, MeRequestRejectsTrailingGarbage) {
  MeRequest req;
  req.type = MeMsgType::kLaStart;
  Bytes bytes = req.serialize();
  bytes.push_back(0x00);
  EXPECT_FALSE(MeRequest::deserialize(bytes).ok());
}

TEST(ProtocolSerde, MeResponseRoundTrip) {
  MeResponse resp;
  resp.status = Status::kPolicyViolation;
  resp.payload = Bytes(300, 0x7a);
  auto back = MeResponse::deserialize(resp.serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().status, Status::kPolicyViolation);
  EXPECT_EQ(back.value().payload, resp.payload);
}

TEST(ProtocolSerde, LibMsgRoundTrip) {
  LibMsg msg;
  msg.type = LibMsgType::kIncomingData;
  msg.status = Status::kOk;
  msg.payload = Bytes(1500, 0x42);
  auto back = LibMsg::deserialize(msg.serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().type, LibMsgType::kIncomingData);
  EXPECT_EQ(back.value().payload, msg.payload);
}

TEST(ProtocolSerde, MigrateRequestPayloadRoundTrip) {
  MigrateRequestPayload payload;
  payload.destination_address = "machine-17";
  payload.policy.allowed_regions = {"eu-central", "ap-south"};
  payload.policy.denied_addresses = {"machine-3"};
  payload.policy.min_cpu_cores = 12;
  payload.data.counters_active[9] = true;
  payload.data.counter_values[9] = 77;
  payload.data.msk[0] = 0xaa;
  auto back = MigrateRequestPayload::deserialize(payload.serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().destination_address, "machine-17");
  EXPECT_EQ(back.value().policy.allowed_regions,
            payload.policy.allowed_regions);
  EXPECT_EQ(back.value().policy.min_cpu_cores, 12u);
  EXPECT_EQ(back.value().data, payload.data);
}

TEST(ProtocolSerde, TransferPayloadRoundTrip) {
  TransferPayload payload;
  payload.source_mr_enclave[5] = 0x55;
  payload.source_me_address = "m0";
  payload.data.counters_active[0] = true;
  payload.data.counter_values[0] = 0xffffffff;
  auto back = TransferPayload::deserialize(payload.serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().source_mr_enclave, payload.source_mr_enclave);
  EXPECT_EQ(back.value().source_me_address, "m0");
  EXPECT_EQ(back.value().data, payload.data);
}

// Every message type of both protocol enums must round-trip through the
// envelope it travels in.  simlint's protocol-exhaustiveness checker
// requires every enumerator to be exercised somewhere under tests/ —
// these sweeps are that floor, so a new message type cannot ship
// without at least wire-level coverage (and without being added here).
TEST(ProtocolSerde, MeRequestRoundTripsEveryType) {
  const MeMsgType kAllTypes[] = {
      MeMsgType::kLaStart,      MeMsgType::kLaMsg2,
      MeMsgType::kLaRecord,     MeMsgType::kRaMsg1,
      MeMsgType::kRaMsg3,       MeMsgType::kTransfer,
      MeMsgType::kDone,         MeMsgType::kPrecopyChunk,
      MeMsgType::kPrecopyFinalize, MeMsgType::kReconcile,
      MeMsgType::kAbort,        MeMsgType::kSessionResume,
  };
  for (const MeMsgType type : kAllTypes) {
    MeRequest req;
    req.type = type;
    req.id = 42;
    req.payload = to_bytes(std::string_view("x"));
    auto back = MeRequest::deserialize(req.serialize());
    ASSERT_TRUE(back.ok()) << "type " << static_cast<int>(type);
    EXPECT_EQ(back.value().type, type);
  }
  // The decoder bounds the type by the enum's first and last enumerator.
  MeRequest req;
  Bytes bytes = req.serialize();
  bytes[0] = static_cast<uint8_t>(MeMsgType::kSessionResume) + 1;
  EXPECT_FALSE(MeRequest::deserialize(bytes).ok());
  bytes[0] = static_cast<uint8_t>(MeMsgType::kLaStart) - 1;
  EXPECT_FALSE(MeRequest::deserialize(bytes).ok());
}

TEST(ProtocolSerde, LibMsgRoundTripsEveryType) {
  const LibMsgType kAllTypes[] = {
      LibMsgType::kMigrateRequest,   LibMsgType::kFetchIncoming,
      LibMsgType::kConfirmMigration, LibMsgType::kQueryStatus,
      LibMsgType::kPrecopyRound,     LibMsgType::kPrecopyFinalizeReq,
      LibMsgType::kMigrateEnqueue,   LibMsgType::kPollTransfer,
      LibMsgType::kAbortStale,       LibMsgType::kMigrateAccepted,
      LibMsgType::kIncomingData,     LibMsgType::kConfirmAck,
      LibMsgType::kStatusReport,     LibMsgType::kError,
      LibMsgType::kPrecopyAck,       LibMsgType::kFinalizeAccepted,
      LibMsgType::kMigrateQueued,    LibMsgType::kTransferProgress,
      LibMsgType::kAbortAck,         LibMsgType::kMigrateReserve,
      LibMsgType::kMigrateArm,       LibMsgType::kArmAck,
  };
  for (const LibMsgType type : kAllTypes) {
    LibMsg msg;
    msg.type = type;
    msg.status = Status::kOk;
    msg.payload = to_bytes(std::string_view("payload"));
    auto back = LibMsg::deserialize(msg.serialize());
    ASSERT_TRUE(back.ok()) << "type " << static_cast<int>(type);
    EXPECT_EQ(back.value().type, type);
    EXPECT_EQ(back.value().payload, msg.payload);
  }
  // The enums the LibMsg payloads carry are bounded by their last
  // enumerator: every one decodes, one past the last is rejected.
  for (const TransferProgress progress :
       {TransferProgress::kNone, TransferProgress::kInFlight,
        TransferProgress::kAccepted, TransferProgress::kFailed,
        TransferProgress::kSlotLive}) {
    TransferProgressPayload payload;
    payload.progress = progress;
    auto back = TransferProgressPayload::deserialize(payload.serialize());
    ASSERT_TRUE(back.ok()) << static_cast<int>(progress);
    EXPECT_EQ(back.value().progress, progress);
  }
  Bytes progress_bytes = TransferProgressPayload{}.serialize();
  progress_bytes[0] = static_cast<uint8_t>(TransferProgress::kSlotLive) + 1;
  EXPECT_FALSE(TransferProgressPayload::deserialize(progress_bytes).ok());
  for (const OutgoingState state :
       {OutgoingState::kNone, OutgoingState::kPending,
        OutgoingState::kCompleted}) {
    StatusReport report;
    report.state = state;
    auto back = StatusReport::deserialize(report.serialize());
    ASSERT_TRUE(back.ok()) << static_cast<int>(state);
    EXPECT_EQ(back.value().state, state);
  }
  Bytes report_bytes = StatusReport{}.serialize();
  report_bytes[0] = static_cast<uint8_t>(OutgoingState::kCompleted) + 1;
  EXPECT_FALSE(StatusReport::deserialize(report_bytes).ok());
}

TEST(ProtocolSerde, QueryStatusPayloadRoundTrip) {
  QueryStatusPayload payload;
  payload.request_nonce = 0xdeadbeefcafef00dULL;
  auto back = QueryStatusPayload::deserialize(payload.serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().request_nonce, payload.request_nonce);
}

TEST(ProtocolSerde, MigrateReservePayloadRoundTrip) {
  MigrateReservePayload payload;
  payload.destination_address = "m4";
  payload.request_nonce = 77;
  payload.policy.allowed_regions = {"eu-central"};
  payload.policy.min_cpu_cores = 8;
  auto back = MigrateReservePayload::deserialize(payload.serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().destination_address, "m4");
  EXPECT_EQ(back.value().request_nonce, 77u);
  EXPECT_EQ(back.value().policy.allowed_regions,
            payload.policy.allowed_regions);
}

TEST(ProtocolSerde, PollTransferAndProgressRoundTrip) {
  PollTransferPayload poll;
  poll.request_nonce = 123;
  auto poll_back = PollTransferPayload::deserialize(poll.serialize());
  ASSERT_TRUE(poll_back.ok());
  EXPECT_EQ(poll_back.value().request_nonce, 123u);

  TransferProgressPayload progress;
  progress.progress = TransferProgress::kSlotLive;
  progress.failure = Status::kOk;
  auto back = TransferProgressPayload::deserialize(progress.serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().progress, TransferProgress::kSlotLive);

  progress.progress = TransferProgress::kFailed;
  progress.failure = Status::kPolicyViolation;
  back = TransferProgressPayload::deserialize(progress.serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().progress, TransferProgress::kFailed);
  EXPECT_EQ(back.value().failure, Status::kPolicyViolation);
}

TEST(ProtocolSerde, AbortPayloadsRoundTrip) {
  AbortStalePayload stale;
  stale.request_nonce = 9;
  stale.destination_address = "m2";
  auto stale_back = AbortStalePayload::deserialize(stale.serialize());
  ASSERT_TRUE(stale_back.ok());
  EXPECT_EQ(stale_back.value().request_nonce, 9u);
  EXPECT_EQ(stale_back.value().destination_address, "m2");

  AbortRequest abort_req;
  abort_req.source_mr_enclave[3] = 0x33;
  abort_req.request_nonce = 9;
  auto abort_back = AbortRequest::deserialize(abort_req.serialize());
  ASSERT_TRUE(abort_back.ok());
  EXPECT_EQ(abort_back.value().source_mr_enclave, abort_req.source_mr_enclave);
  EXPECT_EQ(abort_back.value().request_nonce, 9u);
}

TEST(ProtocolSerde, PrecopyRoundPayloadRoundTrip) {
  PrecopyRoundPayload payload;
  payload.destination_address = "m7";
  payload.request_nonce = 404;
  payload.round = 3;
  CounterChunk chunk;
  chunk.index = 5;
  chunk.generation = 11;
  chunk.active[0] = true;
  chunk.values[0] = 99;
  payload.chunks.push_back(chunk);
  auto back = PrecopyRoundPayload::deserialize(payload.serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().round, 3u);
  ASSERT_EQ(back.value().chunks.size(), 1u);
  EXPECT_EQ(back.value().chunks[0].index, 5u);
  EXPECT_EQ(back.value().chunks[0].generation, 11u);
  EXPECT_EQ(back.value().chunks[0].values[0], 99u);
}

TEST(ProtocolSerde, PrecopyFinalizePayloadRoundTrip) {
  PrecopyFinalizePayload payload;
  payload.destination_address = "m7";
  payload.request_nonce = 405;
  payload.round = 4;
  payload.manifest.push_back({2, 7});
  payload.msk[0] = 0x5a;
  auto back = PrecopyFinalizePayload::deserialize(payload.serialize());
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back.value().manifest.size(), 1u);
  EXPECT_EQ(back.value().manifest[0].index, 2u);
  EXPECT_EQ(back.value().manifest[0].generation, 7u);
  EXPECT_EQ(back.value().msk, payload.msk);
}

TEST(ProtocolSerde, PrecopyRecordsRoundTrip) {
  PrecopyChunkRecord chunk_record;
  chunk_record.source_mr_enclave[1] = 0x11;
  chunk_record.source_me_address = "m0";
  chunk_record.request_nonce = 500;
  chunk_record.round = 1;
  auto chunk_back = PrecopyChunkRecord::deserialize(chunk_record.serialize());
  ASSERT_TRUE(chunk_back.ok());
  EXPECT_EQ(chunk_back.value().source_me_address, "m0");
  EXPECT_EQ(chunk_back.value().request_nonce, 500u);

  PrecopyFinalizeRecord finalize_record;
  finalize_record.source_mr_enclave[2] = 0x22;
  finalize_record.source_me_address = "m1";
  finalize_record.request_nonce = 501;
  finalize_record.manifest.push_back({0, 1});
  finalize_record.msk[15] = 0xff;
  auto finalize_back =
      PrecopyFinalizeRecord::deserialize(finalize_record.serialize());
  ASSERT_TRUE(finalize_back.ok());
  EXPECT_EQ(finalize_back.value().source_me_address, "m1");
  ASSERT_EQ(finalize_back.value().manifest.size(), 1u);
  EXPECT_EQ(finalize_back.value().msk, finalize_record.msk);
}

TEST(ProtocolSerde, ReconcileQueryRoundTrip) {
  ReconcileQuery query;
  query.source_mr_enclave[7] = 0x77;
  query.request_nonce = 600;
  auto back = ReconcileQuery::deserialize(query.serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().source_mr_enclave, query.source_mr_enclave);
  EXPECT_EQ(back.value().request_nonce, 600u);
}

TEST(ProtocolSerde, SessionResumeRoundTrip) {
  SessionResumeRequest request;
  request.initiator_address = "m3";
  request.responder_epoch = 0xabcdef;
  request.nonce[0] = 1;
  request.mac[15] = 2;
  auto req_back = SessionResumeRequest::deserialize(request.serialize());
  ASSERT_TRUE(req_back.ok());
  EXPECT_EQ(req_back.value().initiator_address, "m3");
  EXPECT_EQ(req_back.value().responder_epoch, 0xabcdefu);
  EXPECT_EQ(req_back.value().nonce, request.nonce);
  EXPECT_EQ(req_back.value().mac, request.mac);

  SessionResumeReply reply;
  reply.nonce[5] = 9;
  reply.mac[0] = 8;
  auto reply_back = SessionResumeReply::deserialize(reply.serialize());
  ASSERT_TRUE(reply_back.ok());
  EXPECT_EQ(reply_back.value().nonce, reply.nonce);
  EXPECT_EQ(reply_back.value().mac, reply.mac);
}

TEST(ProtocolSerde, ProviderAuthRoundTrip) {
  ProviderAuth auth;
  auth.credential.address = "m9";
  auth.credential.region = "eu-west";
  auth.credential.cpu_cores = 48;
  auth.credential.machine_public_key[0] = 1;
  auth.transcript_signature[63] = 9;
  auto back = ProviderAuth::deserialize(auth.serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().credential.address, "m9");
  EXPECT_EQ(back.value().credential.cpu_cores, 48u);
  EXPECT_EQ(back.value().transcript_signature, auth.transcript_signature);
}

TEST(ProtocolSerde, ProviderAuthMessageBindsTranscript) {
  std::array<uint8_t, 32> t1{};
  std::array<uint8_t, 32> t2{};
  t2[0] = 1;
  EXPECT_NE(provider_auth_message(t1), provider_auth_message(t2));
}

// ----- WireGolden: the bytes of every wire and durable format, frozen -----
//
// Round trips cannot see a change made to both halves of a codec; these
// hashes can.  Every row encodes one fixed sample value; the scenario
// tests pin a sealed ME queue with every section populated, a sealed
// Table II buffer and a decoded v1 buffer.  A new record lands with a
// row here (simlint `protocol-record-golden` checks the protocol.h side).

template <size_t N>
std::array<uint8_t, N> pattern(uint8_t seed) {
  std::array<uint8_t, N> a{};
  for (size_t i = 0; i < N; ++i) a[i] = static_cast<uint8_t>(seed + 7 * i);
  return a;
}

MigrationPolicy sample_policy() {
  MigrationPolicy policy;
  policy.allowed_regions = {"eu-central", "eu-west"};
  policy.denied_addresses = {"m13"};
  policy.min_cpu_cores = 8;
  return policy;
}

MigrationData sample_data() {
  MigrationData data;
  data.counters_active[0] = true;
  data.counters_active[17] = true;
  data.counter_values[0] = 5;
  data.counter_values[17] = 0x01020304;
  data.msk = pattern<16>(0x40);
  return data;
}

CounterChunk sample_chunk(uint32_t index) {
  CounterChunk chunk;
  chunk.index = index;
  chunk.generation = 100 + index;
  chunk.active[1] = true;
  chunk.values[1] = 77 + index;
  chunk.values[2] = 9;  // inactive slots still travel
  return chunk;
}

platform::MachineCredential sample_credential() {
  platform::MachineCredential credential;
  credential.address = "m9";
  credential.region = "eu-west";
  credential.cpu_cores = 48;
  credential.machine_public_key = pattern<32>(0x10);
  credential.signature = pattern<64>(0x20);
  return credential;
}

ProviderAuth sample_auth() {
  ProviderAuth auth;
  auth.credential = sample_credential();
  auth.transcript_signature = pattern<64>(0x30);
  return auth;
}

sgx::ReportBody sample_report_body() {
  sgx::ReportBody body;
  body.identity.mr_enclave = pattern<32>(1);
  body.identity.mr_signer = pattern<32>(2);
  body.identity.isv_prod_id = 0x8086;
  body.identity.isv_svn = 3;
  body.report_data = pattern<64>(4);
  return body;
}

sgx::Quote sample_quote() {
  sgx::Quote quote;
  quote.body = sample_report_body();
  quote.credential.group_id = 0x0b0b0001;
  quote.credential.member_public_key = pattern<32>(5);
  quote.credential.membership_certificate = pattern<64>(6);
  quote.signature = pattern<64>(7);
  return quote;
}

sgx::CounterUuid sample_uuid() {
  sgx::CounterUuid uuid;
  uuid.counter_id = 42;
  uuid.nonce = pattern<12>(8);
  return uuid;
}

struct WireRow {
  std::string name;
  Bytes encoding;
  /// Decodes and re-encodes; nullopt when the decoder rejects the input.
  std::function<std::optional<Bytes>(ByteView)> reencode;
  /// False for formats with bool fields: any non-zero byte decodes as
  /// true, so only a decode -> encode fixed point is expected, not the
  /// input bytes back.
  bool canonical = true;
  /// Proper prefixes of `encoding` that are legal encodings themselves.
  std::vector<size_t> legal_prefixes;
};

template <class T>
WireRow record_row(std::string name, const T& sample, bool canonical = true,
                   std::vector<size_t> legal_prefixes = {}) {
  return {std::move(name), sample.serialize(),
          [](ByteView bytes) -> std::optional<Bytes> {
            auto decoded = T::deserialize(bytes);
            if (!decoded.ok()) return std::nullopt;
            return decoded.value().serialize();
          },
          canonical,
          std::move(legal_prefixes)};
}

// Formats that only travel inside other records: the row frames one
// value with its layout and demands the whole input be used.
template <class T>
WireRow layout_row(std::string name, const T& sample, bool canonical = true) {
  const auto encode = [](const T& value) {
    BinaryWriter w;
    T::layout(w, value);
    return w.take();
  };
  return {std::move(name), encode(sample),
          [encode](ByteView bytes) -> std::optional<Bytes> {
            BinaryReader r(bytes);
            T value;
            T::layout(r, value);
            if (!r.done()) return std::nullopt;
            return encode(value);
          },
          canonical,
          {}};
}

std::vector<WireRow> wire_golden_table() {
  std::vector<WireRow> rows;
  MeRequest me_request;
  me_request.type = MeMsgType::kPrecopyFinalize;
  me_request.id = 0x0123456789abcdefULL;
  me_request.payload = to_bytes(std::string_view("sealed record"));
  rows.push_back(record_row("MeRequest", me_request));

  MeResponse me_response;
  me_response.status = Status::kPolicyViolation;
  me_response.payload = to_bytes(std::string_view("reply"));
  rows.push_back(record_row("MeResponse", me_response));

  LibMsg lib_msg;
  lib_msg.type = LibMsgType::kTransferProgress;
  lib_msg.status = Status::kMigrationInProgress;
  lib_msg.payload = to_bytes(std::string_view("inner"));
  rows.push_back(record_row("LibMsg", lib_msg));

  MigrateRequestPayload migrate;
  migrate.destination_address = "m1";
  migrate.request_nonce = 0x1111;
  migrate.policy = sample_policy();
  migrate.data = sample_data();
  rows.push_back(record_row("MigrateRequestPayload", migrate, false));

  MigrateReservePayload reserve;
  reserve.destination_address = "m2";
  reserve.request_nonce = 0x2222;
  reserve.policy = sample_policy();
  rows.push_back(record_row("MigrateReservePayload", reserve));

  PollTransferPayload poll;
  poll.request_nonce = 0x3333;
  rows.push_back(record_row("PollTransferPayload", poll));

  TransferProgressPayload progress;
  progress.progress = TransferProgress::kFailed;
  progress.failure = Status::kPolicyViolation;
  rows.push_back(record_row("TransferProgressPayload", progress));

  AbortStalePayload stale;
  stale.request_nonce = 0x4444;
  stale.destination_address = "m3";
  rows.push_back(record_row("AbortStalePayload", stale));

  AbortRequest abort_request;
  abort_request.source_mr_enclave = pattern<32>(0x50);
  abort_request.request_nonce = 0x5555;
  rows.push_back(record_row("AbortRequest", abort_request));

  QueryStatusPayload query;
  query.request_nonce = 0x6666;
  // An empty query is the per-identity status query.
  rows.push_back(record_row("QueryStatusPayload", query, true, {0}));

  rows.push_back(layout_row("CounterChunk", sample_chunk(3), false));
  rows.push_back(layout_row("ChunkManifestEntry", ChunkManifestEntry{7, 0x77}));

  PrecopyRoundPayload round;
  round.destination_address = "m4";
  round.request_nonce = 0x7777;
  round.round = 2;
  round.policy = sample_policy();
  round.chunks = {sample_chunk(0), sample_chunk(5)};
  rows.push_back(record_row("PrecopyRoundPayload", round, false));

  PrecopyFinalizePayload finalize;
  finalize.destination_address = "m4";
  finalize.request_nonce = 0x7777;
  finalize.round = 3;
  finalize.policy = sample_policy();
  finalize.chunks = {sample_chunk(5)};
  finalize.manifest = {{0, 100}, {5, 105}};
  finalize.msk = pattern<16>(0x60);
  rows.push_back(record_row("PrecopyFinalizePayload", finalize, false));

  PrecopyChunkRecord chunk_record;
  chunk_record.source_mr_enclave = pattern<32>(0x70);
  chunk_record.source_me_address = "m0";
  chunk_record.request_nonce = 0x8888;
  chunk_record.round = 1;
  chunk_record.chunks = {sample_chunk(1)};
  rows.push_back(record_row("PrecopyChunkRecord", chunk_record, false));

  PrecopyFinalizeRecord finalize_record;
  finalize_record.source_mr_enclave = pattern<32>(0x71);
  finalize_record.source_me_address = "m0";
  finalize_record.request_nonce = 0x8888;
  finalize_record.round = 4;
  finalize_record.chunks = {sample_chunk(2), sample_chunk(15)};
  finalize_record.manifest = {{2, 102}, {15, 115}};
  finalize_record.msk = pattern<16>(0x61);
  rows.push_back(record_row("PrecopyFinalizeRecord", finalize_record, false));

  ReconcileQuery reconcile;
  reconcile.source_mr_enclave = pattern<32>(0x72);
  reconcile.request_nonce = 0x9999;
  rows.push_back(record_row("ReconcileQuery", reconcile));

  TransferPayload transfer;
  transfer.source_mr_enclave = pattern<32>(0x73);
  transfer.source_me_address = "m0";
  transfer.request_nonce = 0xaaaa;
  transfer.data = sample_data();
  rows.push_back(record_row("TransferPayload", transfer, false));

  SessionResumeRequest resume;
  resume.initiator_address = "m5";
  resume.responder_epoch = 0xabcdef;
  resume.nonce = pattern<16>(0x74);
  resume.mac = pattern<16>(0x75);
  rows.push_back(record_row("SessionResumeRequest", resume));

  SessionResumeReply resume_reply;
  resume_reply.nonce = pattern<16>(0x76);
  resume_reply.mac = pattern<16>(0x77);
  rows.push_back(record_row("SessionResumeReply", resume_reply));

  rows.push_back(record_row("ProviderAuth", sample_auth()));

  rows.push_back(layout_row("MachineCredential", sample_credential()));
  rows.push_back(record_row("MigrationPolicy", sample_policy()));

  // Payloads the ME and the library exchange inside LA and RA records.
  FetchReply fetch;
  fetch.data = sample_data();
  fetch.delivery_token = 0xbbbb;
  fetch.request_nonce = 0xcccc;
  rows.push_back(record_row("FetchReply", fetch, false));
  ConfirmPayload confirm;
  confirm.delivery_token = 0xdddd;
  rows.push_back(record_row("ConfirmPayload", confirm));
  StatusReport status_report;
  status_report.state = OutgoingState::kPending;
  rows.push_back(record_row("StatusReport", status_report));
  DoneRecord done;
  done.transfer_id = 0xeeee;
  rows.push_back(record_row("DoneRecord", done));
  AbortVerdict abort_verdict;
  abort_verdict.safe = 1;
  rows.push_back(record_row("AbortVerdict", abort_verdict));
  ReconcileReply reconcile_reply;
  reconcile_reply.verdict = ReconcileVerdict::kSuperseded;
  rows.push_back(record_row("ReconcileVerdictRecord", reconcile_reply));
  RaMsg3Bundle bundle;
  sgx::RaMsg3 bundled_msg3;
  bundled_msg3.initiator_quote = sample_quote().serialize();
  bundle.msg3 = bundled_msg3.serialize();
  bundle.provider_auth = sample_auth().serialize();
  rows.push_back(record_row("RaMsg3Bundle", bundle));
  RaMsg3Reply msg3_reply;
  msg3_reply.provider_auth = sample_auth();
  msg3_reply.responder_epoch = 0xf0f0;
  rows.push_back(record_row("RaMsg3Reply", msg3_reply));
  MskSealedBlob sealed_blob;
  sealed_blob.iv = pattern<12>(0x80);
  sealed_blob.tag = pattern<16>(0x81);
  sealed_blob.aad = to_bytes(std::string_view("aad"));
  sealed_blob.ciphertext = to_bytes(std::string_view("ciphertext"));
  rows.push_back(record_row("MskSealedBlob", sealed_blob));

  // Durable formats outside the protocol.
  rows.push_back(record_row("MigrationData", sample_data(), false));
  LibraryState state;
  state.frozen = 1;
  state.counters_active[2] = true;
  state.counter_uuids[2] = sample_uuid();
  state.counter_offsets[2] = 12;
  state.msk = pattern<16>(0x90);
  state.epoch_active = 1;
  state.epoch_uuid = sample_uuid();
  state.epoch_value = 6;
  rows.push_back(record_row("LibraryState", state, false));
  {
    net::SecureChannel channel(pattern<16>(0x91),
                               net::SecureChannel::Role::kResponder);
    channel.seal_record(to_bytes(std::string_view("advance")));
    WireRow row{"SecureChannelState", channel.serialize_state(),
                [](ByteView bytes) -> std::optional<Bytes> {
                  auto parsed = net::SecureChannel::deserialize_state(bytes);
                  if (!parsed.ok()) return std::nullopt;
                  return parsed.value().serialize_state();
                },
                true,
                {}};
    rows.push_back(std::move(row));
  }

  // SGX wire types.
  sgx::DhMsg1 dh1;
  dh1.responder_public = pattern<32>(0xa0);
  dh1.responder_target.mr_enclave = pattern<32>(0xa1);
  rows.push_back(record_row("DhMsg1", dh1));
  sgx::DhMsg2 dh2;
  dh2.initiator_public = pattern<32>(0xa2);
  dh2.initiator_report.body = sample_report_body();
  dh2.initiator_report.mac = pattern<16>(0xa3);
  rows.push_back(record_row("DhMsg2", dh2));
  sgx::DhMsg3 dh3;
  dh3.responder_report = dh2.initiator_report;
  rows.push_back(record_row("DhMsg3", dh3));
  rows.push_back(record_row("Report", dh2.initiator_report));
  sgx::RaMsg1 ra1;
  ra1.initiator_public = pattern<32>(0xa4);
  rows.push_back(record_row("RaMsg1", ra1));
  sgx::RaMsg2 ra2;
  ra2.responder_public = pattern<32>(0xa5);
  ra2.responder_quote = sample_quote().serialize();
  rows.push_back(record_row("RaMsg2", ra2));
  sgx::RaMsg3 ra3;
  ra3.initiator_quote = sample_quote().serialize();
  rows.push_back(record_row("RaMsg3", ra3));
  rows.push_back(record_row("Quote", sample_quote()));
  sgx::VerificationReport ias;
  ias.verdict = sgx::IasVerdict::kGroupRevoked;
  ias.quote_body = sample_report_body().serialize();
  ias.ias_signature = pattern<64>(0xa6);
  rows.push_back(record_row("VerificationReport", ias));
  sgx::PseRequest pse_request;
  pse_request.op = sgx::PseOp::kCreate;
  pse_request.owner = pattern<32>(0xa7);
  pse_request.session_token = pattern<16>(0xa8);
  pse_request.uuid = sample_uuid();
  pse_request.nonce_entropy = to_bytes(std::string_view("entropy"));
  rows.push_back(record_row("PseRequest", pse_request));
  sgx::PseResponse pse_response;
  pse_response.status = Status::kOk;
  pse_response.uuid = sample_uuid();
  pse_response.value = 31;
  rows.push_back(record_row("PseResponse", pse_response));

  // Application records.
  apps::PaymentMessage payment;
  payment.channel_id = 0x1234;
  payment.sequence = 9;
  payment.balance_a = 700;
  payment.balance_b = 300;
  payment.sender = pattern<32>(0xc0);
  payment.signature = pattern<64>(0xc1);
  rows.push_back(record_row("PaymentMessage", payment));
  apps::TrinxCertificate certificate;
  certificate.counter_id = 3;
  certificate.value = 41;
  certificate.message_hash = pattern<32>(0xc2);
  certificate.signer = pattern<32>(0xc3);
  certificate.signature = pattern<64>(0xc4);
  rows.push_back(record_row("TrinxCertificate", certificate));
  return rows;
}

std::string sha256_hex(ByteView bytes) {
  const auto digest = crypto::Sha256::hash(bytes);
  return hex_encode(ByteView(digest.data(), digest.size()));
}

TEST(WireGolden, EveryRecordEncoding) {
  const std::map<std::string, std::string> expected = {
      {"MeRequest", "007199c8c7c7417b507407ed2b251124d0dbf8edf89cdb31a4543b6802aca58b"},
      {"MeResponse", "e3d8b449d38c38af8097476496cfb2a9ca3e62663b3aa4e7ab3a774bc967ecb5"},
      {"LibMsg", "bb3b7852cbb33f941f57b3ff43fc7958e4d737bb5ab296edcee694e6236f2fe7"},
      {"MigrateRequestPayload", "1e2cb9709715233b57e348e06689478d1dcd42fb19c74ed3cb85112fcb76c770"},
      {"MigrateReservePayload", "a89db749e534d85c687cf4d42d46921cbbe0136dad6cfa62fc3729bef1455bc4"},
      {"PollTransferPayload", "da995d71826e48b55e769df8d23788a6b9aaf260284e85de18d6b40dc984dec5"},
      {"TransferProgressPayload", "a580bd6b1a4fbd4187d61cc7fcf6ce7d74207c3c9adddae9c3a358a5cb8344b0"},
      {"AbortStalePayload", "79325d10650689d24e7fabbfafd4c578f23e625d990ce1c68cd498f01127ed9a"},
      {"AbortRequest", "ee384d75b19436524b258514b59939a8c3a8f3e70c70c81a8412d83a23aeee11"},
      {"QueryStatusPayload", "ade5b53b953ab4a25b5ecbca6f4b12ad2fb95b8e58aa0bda442e3f2a79d40148"},
      {"CounterChunk", "2d9cf39933aff513cc5c86414efe0b126c1f0fa76943a60c6e7a49c5d8a5ae87"},
      {"ChunkManifestEntry", "31f823e9bd4c458eb5b30f55d39bb0c26b86527133115291e0e5056049214ca3"},
      {"PrecopyRoundPayload", "4086858a412d0fdc612b5066cfe757bc394f8334f2f9a3ee46f32c33784ae796"},
      {"PrecopyFinalizePayload", "6e48fa3532935d0b71183a83ba136472f5dc86b4cda8968d5171d7663cddf834"},
      {"PrecopyChunkRecord", "6eefbd860a1e3fec5fede7eb79a29a23b673e4fd6a856488eed099ce5e6b0346"},
      {"PrecopyFinalizeRecord", "dc240eabc035b07d7b68d546292b8208ace396a6386c268336f21b6cb999bd16"},
      {"ReconcileQuery", "dbdfacd3a03cb98916d266cdca9c5c51b17ab356c6c1009eb06253bd1f226ce2"},
      {"TransferPayload", "ea46d684fc2478423d142ab25e2ef35f56a361dbcfe7a0e26715566ab61b4a06"},
      {"SessionResumeRequest", "1d9e4d08e72e79e78b88799db43054144105ba944020205a4387213b551bb27a"},
      {"SessionResumeReply", "0a85e82db04f079193a4daa414d3ff2374267140a088d6e5aeccd67815f34089"},
      {"ProviderAuth", "3180347ddf74f90fb711c0e1d2a66d04d3f9a7dcca9129d7dced4a1cc8610b9b"},
      {"MachineCredential", "d7f8bf326f4b42483a95df9aae90b4b625a44bdd79d98c37b4342db0cd5def13"},
      {"MigrationPolicy", "18d7d8bafdd1db4473fea9859f6711df690a55540ab0bef43097b879aeae9479"},
      {"FetchReply", "15bc5f7209774313deabc946c9500324c16f3f040889a7b15d4e40196b81b20d"},
      {"ConfirmPayload", "4e43de4104823795035603d30a9b0a20be7ed0dffea232ecad50bb93a2147dca"},
      {"StatusReport", "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a"},
      {"DoneRecord", "8eb2d8661fef7c5465f7f503142a77909852c93b7aa6015427f67f89ecf0599d"},
      {"AbortVerdict", "ba47575d295fe0d926598be4e1cf472169118301030b0eee293e30feb6c49949"},
      {"ReconcileVerdictRecord", "67fd192200dbcf222f8f8969a2a817ea13863d91374b1b789423129d1d0b76b5"},
      {"RaMsg3Bundle", "47a9187cb750fe976bfb97567b973ed50ce2c5bb37cf6bad3737cc9d5017cadb"},
      {"RaMsg3Reply", "ff73edcd9acb18d72212e050b25beb20e6d44c294ed247c20951cab6851bb31c"},
      {"MskSealedBlob", "4f02ce69c8aa73a9189de2a9559c88e6f541348a402630431a3869673b965020"},
      {"MigrationData", "93e4cca167eb8a379989d89bbc14382b137157ec06849f5e2121ebd171eaf697"},
      {"LibraryState", "7e4ed3e7e69d5cef3634bd23495780807bd8517f31d9a65f065a6c21c85bb777"},
      {"SecureChannelState", "618101f7bca45bfe48511f7d77e4f67e44108d93351285a1e91f827df50b1862"},
      {"DhMsg1", "c14e23d6ea724b7f39fc81e0ea1d1294fc06e025fccaca672c9ddd746ce2d509"},
      {"DhMsg2", "8aa79455da55b197d2110faefd51f323559c174494b5ac45e3fec8854a7cb8e1"},
      {"DhMsg3", "5115c3eb2049fc4c650b6709626eb5d532a024d00e34e9971c2293f692971023"},
      {"Report", "b8d9d5a9eaed5d892eaed144d50639f48b1f254ca1eb3995c24fe849e1e0ef67"},
      {"RaMsg1", "c7be047bf0b5faf22595d8a5520b57287246c831c378693259f3f49ec4451614"},
      {"RaMsg2", "4fc3caaa8d827fff66185b4ee0ac78eeb0dda86066fa14cf809f7f30cace8cd3"},
      {"RaMsg3", "b73222b35d46d01b742551b4081af61932007b13e8ccdbdb563acb07967e31aa"},
      {"Quote", "b0ea11a8734fd6269121df1f0735ab435d65665cc51a5015dc71f7ada8d51157"},
      {"VerificationReport", "c6a27a25c302d19fcab6ab64a2c7bf44753a92a8de7858de43d113135092d166"},
      {"PseRequest", "c0addbf17084a57882f0de6f0a43ec7e0fe5aa9c1e907aeb6d7a0c820718079c"},
      {"PseResponse", "cb7a77630ff0e5de9899200328bbc82c22afd435fd4ce0ef8d597c9f6aaad1b3"},
      {"PaymentMessage", "fb17b60ebee8c49b3346e86a2070a4086baffd76038b4799fff45978f78210fe"},
      {"TrinxCertificate", "4ce21f53eac1aa8cced8a7e86b68703ec6caa697f3e67bd8efc819cda9261821"},
  };
  std::set<std::string> seen;
  for (const WireRow& row : wire_golden_table()) {
    EXPECT_TRUE(seen.insert(row.name).second) << "duplicate row " << row.name;
    const auto it = expected.find(row.name);
    const std::string actual = sha256_hex(row.encoding);
    if (it == expected.end()) {
      ADD_FAILURE() << "no golden for {\"" << row.name << "\", \"" << actual
                    << "\"},";
      continue;
    }
    EXPECT_EQ(actual, it->second) << row.name;
    // The sample itself decodes back to the same bytes.
    const auto back = row.reencode(row.encoding);
    ASSERT_TRUE(back.has_value()) << row.name;
    EXPECT_EQ(*back, row.encoding) << row.name;
  }
  EXPECT_EQ(seen.size(), expected.size());
}

// One ME (m0) driven through every queue section: a retained outgoing
// transfer, a completed one, an undelivered pending entry with its
// authenticated inbound channel, a confirmed incoming migration whose
// DONE cannot be relayed, a source-side pre-copy task, destination-side
// pre-copy staging, a durable queued full-snapshot task and a cached
// peer session.
TEST(WireGolden, SealedQueueAfterScriptedScenario) {
  platform::World world(/*seed=*/1789);
  world.install_management_enclaves(
      durable_me_factory(world.provider()));
  platform::Machine& m0 = world.add_machine("m0");
  platform::Machine& m1 = world.add_machine("m1");
  world.add_machine("m2");
  const auto app = [&](platform::Machine& m, const std::string& name,
                       bool live) {
    auto enclave = std::make_unique<MigratableEnclave>(
        m, sgx::EnclaveImage::create(name, 1, "acme"),
        PersistenceMode::kSync, GroupCommitOptions{}, live);
    enclave->set_persist_callback([](ByteView) {});
    EXPECT_EQ(enclave->ecall_migration_init(ByteView(), InitState::kNew,
                                            m.address()),
              Status::kOk);
    EXPECT_TRUE(enclave->ecall_create_migratable_counter().ok());
    EXPECT_TRUE(enclave->ecall_increment_migratable_counter(0).ok());
    return enclave;
  };
  const auto restore = [&](platform::Machine& m, const std::string& name) {
    auto enclave = std::make_unique<MigratableEnclave>(
        m, sgx::EnclaveImage::create(name, 1, "acme"));
    enclave->set_persist_callback([](ByteView) {});
    EXPECT_EQ(enclave->ecall_migration_init(ByteView(), InitState::kMigrate,
                                            m.address()),
              Status::kOk);
  };
  MigrationEnclave* me0 = me_on(m0);

  ASSERT_EQ(app(m0, "retained", false)->ecall_migration_start("m1"),
            Status::kOk);
  ASSERT_EQ(app(m0, "completed", false)->ecall_migration_start("m1"),
            Status::kOk);
  restore(m1, "completed");
  ASSERT_EQ(app(m1, "pending", false)->ecall_migration_start("m0"),
            Status::kOk);
  auto precopy_out = app(m0, "precopy-out", true);
  ASSERT_TRUE(precopy_out->ecall_migration_precopy_round("m1").ok());
  auto precopy_in = app(m1, "precopy-in", true);
  ASSERT_TRUE(precopy_in->ecall_migration_precopy_round("m0").ok());
  auto queued = app(m0, "queued", false);
  ASSERT_TRUE(queued->ecall_migration_enqueue_detailed("m2").ok());
  ASSERT_EQ(app(m1, "confirmed", false)->ecall_migration_start("m0"),
            Status::kOk);
  world.network().set_endpoint_down(m1.me_endpoint(), true);
  restore(m0, "confirmed");
  world.network().set_endpoint_down(m1.me_endpoint(), false);

  EXPECT_EQ(me0->outgoing_count(), 1u);
  EXPECT_EQ(me0->completed_history_size(), 1u);
  EXPECT_EQ(me0->pending_incoming_count(), 1u);
  EXPECT_EQ(me0->confirmed_incoming_size(), 1u);
  EXPECT_EQ(me0->unrelayed_done_count(), 1u);
  EXPECT_EQ(me0->precopy_staging_count(), 1u);
  EXPECT_EQ(me0->transfer_task_count(), 2u);
  EXPECT_EQ(me0->peer_session_count(), 2u);
  EXPECT_EQ(sha256_hex(me0->sealed_queue_state()),
            "22fefa22f94b85ffe6ddf94d747175258ac520951e8b4652f111860e97137b72");
}

TEST(WireGolden, SealedLibraryStateV2) {
  platform::World world(/*seed=*/1790);
  platform::Machine& m0 = world.add_machine("m0");
  auto enclave = std::make_unique<MigratableEnclave>(
      m0, sgx::EnclaveImage::create("sealed-state", 1, "acme"),
      PersistenceMode::kSync, GroupCommitOptions{}, /*live=*/true);
  enclave->set_persist_callback([](ByteView) {});
  ASSERT_EQ(enclave->ecall_migration_init(ByteView(), InitState::kNew, "m0"),
            Status::kOk);
  ASSERT_TRUE(enclave->ecall_create_migratable_counter().ok());
  ASSERT_TRUE(enclave->ecall_create_migratable_counter().ok());
  ASSERT_TRUE(enclave->ecall_increment_migratable_counter(1).ok());
  EXPECT_EQ(sha256_hex(enclave->sealed_state()),
            "f35f2e6b3f6b51c23b53f568ddd2b650488dee3c4de2cade641818a31ce10da8");
}

TEST(WireGolden, DecodedV1LibraryState) {
  // A Table II buffer sealed before the epoch guard existed: no epoch
  // fields, and it restores with the guard inactive.
  BinaryWriter w;
  w.str("SGXMIG-LIBSTATE-v1");
  w.u8(0);
  for (size_t i = 0; i < kMaxCounters; ++i) w.u8(i % 3 == 0 ? 1 : 0);
  for (size_t i = 0; i < kMaxCounters; ++i) {
    w.u32(static_cast<uint32_t>(i));
    w.fixed(pattern<12>(static_cast<uint8_t>(i)));
  }
  for (size_t i = 0; i < kMaxCounters; ++i) w.u32(static_cast<uint32_t>(3 * i));
  w.fixed(pattern<16>(0xb0));
  auto state = LibraryState::deserialize(w.data());
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(state.value().epoch_active, 0);
  EXPECT_EQ(sha256_hex(state.value().serialize()),
            "67053f3045b49f6a2f6e01d2c80cb72c3284d91c7e9a2503efe2cb03a3e08c25");
}

// ----- fuzzing every row of the golden table -----

class ProtocolFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ProtocolFuzz, TruncationsNeverParse) {
  Rng rng(GetParam());
  for (const WireRow& row : wire_golden_table()) {
    // Every proper prefix must fail to parse (no partial acceptance),
    // except the ones the format declares legal.
    for (int i = 0; i < 20; ++i) {
      const size_t cut = rng.uniform(row.encoding.size());
      if (std::count(row.legal_prefixes.begin(), row.legal_prefixes.end(),
                     cut) != 0) {
        continue;
      }
      const Bytes truncated(row.encoding.begin(),
                            row.encoding.begin() + static_cast<long>(cut));
      EXPECT_FALSE(row.reencode(truncated).has_value())
          << row.name << " cut at " << cut;
    }
  }
}

TEST_P(ProtocolFuzz, RandomBytesNeverMisparse) {
  Rng rng(GetParam() ^ 0xf00d);
  for (const WireRow& row : wire_golden_table()) {
    for (int i = 0; i < 20; ++i) {
      // Half the inputs are near the sample's size, where a parse is
      // likeliest; every decoder must stay in bounds either way.
      const size_t len = i % 2 == 0 ? rng.uniform(2048)
                                    : row.encoding.size() - rng.uniform(2);
      const Bytes junk = rng.bytes(len);
      const auto back = row.reencode(junk);
      if (!back.has_value()) continue;
      if (row.canonical) {
        EXPECT_EQ(*back, junk) << row.name;
      } else {
        EXPECT_EQ(row.reencode(*back), back) << row.name;
      }
    }
  }
}

TEST_P(ProtocolFuzz, BitFlipsDetectedOrIsomorphic) {
  Rng rng(GetParam() ^ 0xbeef);
  for (const WireRow& row : wire_golden_table()) {
    for (int i = 0; i < 20; ++i) {
      Bytes mutated = row.encoding;
      mutated[rng.uniform(mutated.size())] ^=
          static_cast<uint8_t>(1u << rng.uniform(8));
      const auto back = row.reencode(mutated);
      if (!back.has_value()) continue;
      // Structure-level parse may succeed; the flipped field must then
      // show up, so the authentication above this layer catches it.
      if (row.canonical) {
        EXPECT_EQ(*back, mutated) << row.name;
      } else {
        EXPECT_EQ(row.reencode(*back), back) << row.name;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProtocolFuzz, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace sgxmig::migration
