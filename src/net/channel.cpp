#include "net/channel.h"

#include "support/serde.h"

namespace sgxmig::net {

namespace {
std::array<uint8_t, 12> make_iv(uint32_t dir, uint64_t seq) {
  std::array<uint8_t, 12> iv{};
  store_be32(iv.data(), dir);
  store_be64(iv.data() + 4, seq);
  return iv;
}

Bytes make_aad(uint32_t dir, uint64_t seq) {
  BinaryWriter w;
  w.u32(dir);
  w.u64(seq);
  return w.take();
}
}  // namespace

SecureChannel::SecureChannel(const sgx::Key128& key, Role role) : key_(key) {
  if (role == Role::kInitiator) {
    send_dir_ = kDirInitiatorToResponder;
    recv_dir_ = kDirResponderToInitiator;
  } else {
    send_dir_ = kDirResponderToInitiator;
    recv_dir_ = kDirInitiatorToResponder;
  }
}

Bytes SecureChannel::seal_record(ByteView plaintext) {
  const auto iv = make_iv(send_dir_, send_seq_);
  const auto ct = crypto::gcm_encrypt(ByteView(key_.data(), key_.size()),
                                      ByteView(iv.data(), iv.size()),
                                      make_aad(send_dir_, send_seq_), plaintext);
  ++send_seq_;
  BinaryWriter w;
  w.fixed(ct.tag);
  w.bytes(ct.ciphertext);
  return w.take();
}

Result<Bytes> SecureChannel::open_record(ByteView record) {
  BinaryReader r(record);
  const auto tag = r.fixed<16>();
  const Bytes ciphertext = r.bytes();
  if (!r.done()) return Status::kChannelError;

  const auto iv = make_iv(recv_dir_, recv_seq_);
  auto plaintext = crypto::gcm_decrypt(
      ByteView(key_.data(), key_.size()), ByteView(iv.data(), iv.size()),
      make_aad(recv_dir_, recv_seq_), ciphertext, ByteView(tag.data(), 16));
  if (!plaintext.ok()) {
    // A record that does not authenticate under the expected sequence
    // number is either tampered or an out-of-order/replayed record.
    return Status::kReplayDetected;
  }
  ++recv_seq_;
  return plaintext;
}

Bytes SecureChannel::serialize_state() const {
  BinaryWriter w;
  layout(w, *this);
  return w.take();
}

Result<SecureChannel> SecureChannel::deserialize_state(ByteView blob) {
  SecureChannel channel(sgx::Key128{}, Role::kInitiator);
  BinaryReader r(blob);
  layout(r, channel);
  if (!r.done()) {
    secure_wipe(channel.key_.data(), channel.key_.size());
    return Status::kChannelError;
  }
  return channel;
}

}  // namespace sgxmig::net
