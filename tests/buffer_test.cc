// Buffer/BufferSlice ownership semantics plus the aliasing guarantees the
// zero-copy packet path depends on: one multicast transmission is one
// allocation no matter how many receivers it fans out to, receivers can
// never perturb each other through the shared bytes, and a slice keeps the
// transmission's buffer alive after every transport layer has moved on.
#include "src/base/buffer.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "bench/alloc_hook.h"
#include "src/base/bytes.h"
#include "src/base/local_ref.h"
#include "src/codec/raw_codec.h"
#include "src/lan/segment.h"
#include "src/proto/wire.h"
#include "src/sim/simulation.h"

namespace espk {
namespace {

TEST(BufferTest, CopyCountsPayloadBytes) {
  ResetBufferCounters();
  Bytes src = {1, 2, 3, 4};
  Buffer copied = Buffer::Copy(src);
  EXPECT_EQ(copied.size(), 4u);
  EXPECT_EQ(copied.use_count(), 1);
  EXPECT_EQ(buffer_counters().buffers_created, 1u);
  EXPECT_EQ(buffer_counters().payload_copies, 1u);
  EXPECT_EQ(buffer_counters().payload_bytes_copied, 4u);
  // The copy is independent of the source vector.
  src[0] = 99;
  EXPECT_EQ(copied.data()[0], 1);
}

TEST(BufferTest, FromBytesAdoptsWithoutCopying) {
  ResetBufferCounters();
  Bytes src = {5, 6, 7};
  const uint8_t* storage = src.data();
  Buffer adopted = Buffer::FromBytes(std::move(src));
  EXPECT_EQ(adopted.data(), storage);  // Same heap storage, no copy.
  EXPECT_EQ(buffer_counters().adoptions, 1u);
  EXPECT_EQ(buffer_counters().payload_copies, 0u);
  EXPECT_EQ(buffer_counters().payload_bytes_copied, 0u);
}

TEST(BufferTest, SharingBumpsRefcountNotBytes) {
  Buffer original = Buffer::Copy(Bytes{1, 2, 3});
  ResetBufferCounters();
  Buffer second = original;
  BufferSlice view(original);
  EXPECT_EQ(original.use_count(), 3);
  EXPECT_EQ(second.data(), original.data());
  EXPECT_EQ(view.data(), original.data());
  EXPECT_EQ(buffer_counters().buffers_created, 0u);
  EXPECT_EQ(buffer_counters().payload_copies, 0u);
  EXPECT_EQ(buffer_counters().shares, 2u);
}

TEST(BufferSliceTest, SubsliceAliasesAndClamps) {
  BufferSlice whole = {10, 11, 12, 13, 14};
  BufferSlice mid = whole.Subslice(1, 3);
  EXPECT_EQ(mid.size(), 3u);
  EXPECT_EQ(mid.data(), whole.data() + 1);  // Same allocation.
  EXPECT_EQ(mid, (Bytes{11, 12, 13}));
  // Out-of-range requests clamp instead of reading past the end.
  EXPECT_EQ(whole.Subslice(3, 100).size(), 2u);
  EXPECT_EQ(whole.Subslice(100, 5).size(), 0u);
  // Subslice of subslice stays within the inner bounds.
  EXPECT_EQ(mid.Subslice(2, 10), (Bytes{13}));
}

TEST(BufferSliceTest, EqualityIsContentNotIdentity) {
  BufferSlice a = {1, 2, 3};
  BufferSlice b = {1, 2, 3};
  EXPECT_NE(a.data(), b.data());
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, (Bytes{1, 2, 3}));
  EXPECT_NE(a, (Bytes{1, 2}));
  EXPECT_NE(a.Subslice(0, 2), b);
}

TEST(BufferBuilderTest, FinishAdoptsAccumulatedBytes) {
  BufferBuilder builder;
  builder.WriteU32(0xA1B2C3D4);
  ResetBufferCounters();
  BufferSlice wire = builder.Finish();
  EXPECT_EQ(wire.size(), 4u);
  EXPECT_EQ(buffer_counters().adoptions, 1u);
  EXPECT_EQ(buffer_counters().payload_copies, 0u);
}

// ------------------------------------------------------------- aliasing

// One segment, one sender, `n` receivers joined to group 100; every
// received Datagram is appended to `out`.
struct FanOutRig {
  FanOutRig(Simulation* sim, size_t n, std::vector<Datagram>* out)
      : segment(sim, SegmentConfig{}), sender(segment.CreateNic()) {
    for (size_t i = 0; i < n; ++i) {
      receivers.push_back(segment.CreateNic());
      EXPECT_TRUE(receivers.back()->JoinGroup(100).ok());
      receivers.back()->SetReceiveHandler(
          [out](const Datagram& d) { out->push_back(d); });
    }
  }
  EthernetSegment segment;
  std::unique_ptr<SimNic> sender;
  std::vector<std::unique_ptr<SimNic>> receivers;
};

TEST(BufferAliasTest, FanOutSharesOneAllocationAcrossReceivers) {
  Simulation sim;
  std::vector<Datagram> received;
  FanOutRig rig(&sim, 8, &received);
  ResetBufferCounters();
  ASSERT_TRUE(rig.sender->SendMulticast(100, Bytes(512, 0x5A)).ok());
  sim.Run();
  ASSERT_EQ(received.size(), 8u);
  for (const Datagram& d : received) {
    EXPECT_EQ(d.payload.data(), received[0].payload.data());
    EXPECT_EQ(d.payload.size(), 512u);
  }
  // The whole transmission allocated exactly one buffer (the rvalue Bytes
  // was adopted); fan-out only bumped refcounts.
  EXPECT_EQ(buffer_counters().buffers_created, 1u);
  EXPECT_EQ(buffer_counters().payload_copies, 0u);
  EXPECT_GE(buffer_counters().shares, 8u);
}

TEST(BufferAliasTest, ReceiverMutatingDecodedOutputDoesNotPerturbOthers) {
  // Two receivers parse the same arrival buffer; each decodes its payload
  // slice independently. Scribbling over one receiver's decoded samples (or
  // a copied-out byte vector) must not show up anywhere else.
  Simulation sim;
  std::vector<Datagram> received;
  FanOutRig rig(&sim, 2, &received);

  AudioConfig config = AudioConfig::PhoneQuality();
  DataPacket packet;
  packet.stream_id = 1;
  packet.seq = 7;
  packet.frame_count = 80;
  packet.payload = Bytes(80, 0x42);
  ASSERT_TRUE(
      rig.sender->SendMulticast(100, SerializePacketSlice(packet)).ok());
  sim.Run();
  ASSERT_EQ(received.size(), 2u);

  Result<ParsedPacket> a = ParsePacket(received[0].payload);
  Result<ParsedPacket> b = ParsePacket(received[1].payload);
  ASSERT_TRUE(a.ok() && b.ok());
  const DataPacket& data_a = std::get<DataPacket>(a->packet);
  const DataPacket& data_b = std::get<DataPacket>(b->packet);
  // Both parsed payloads alias the single arrival allocation.
  EXPECT_EQ(data_a.payload.data(), data_b.payload.data());

  RawDecoder decoder(config);
  Result<std::vector<float>> samples_a = decoder.DecodePacket(data_a.payload);
  Result<std::vector<float>> samples_b = decoder.DecodePacket(data_b.payload);
  ASSERT_TRUE(samples_a.ok() && samples_b.ok());
  ASSERT_EQ(samples_a->size(), samples_b->size());

  // Receiver A trashes its decode output and a copied-out byte view.
  for (float& s : *samples_a) {
    s = -1.0f;
  }
  Bytes scribble = data_a.payload.ToBytes();
  for (uint8_t& byte : scribble) {
    byte = 0xFF;
  }
  // Receiver B's world is untouched: its decoded samples and the shared
  // wire bytes still match a fresh decode of the original payload.
  EXPECT_NE((*samples_b)[0], -1.0f);
  EXPECT_EQ(data_b.payload, Bytes(80, 0x42));
  Result<std::vector<float>> again = decoder.DecodePacket(data_b.payload);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*samples_b, *again);
}

// LocalRef (decoded PCM shared inside a speaker zone) follows Buffer's
// single-shard rule: a plain refcount, the value freed with its last
// handle, and in debug builds a share from a second shard asserts.
TEST(LocalRefTest, HandlesShareOneValueUntilTheLastGoes) {
  auto a = LocalRef<const std::vector<int>>::Make(std::vector<int>{1, 2});
  EXPECT_EQ(a.use_count(), 1);
  {
    LocalRef<const std::vector<int>> b = a;
    EXPECT_EQ(a.use_count(), 2);
    EXPECT_EQ(b->data(), a->data());
  }
  EXPECT_EQ(a.use_count(), 1);
  LocalRef<const std::vector<int>> moved = std::move(a);
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): moved-from is null.
  EXPECT_EQ(moved.use_count(), 1);
}

TEST(LocalRefDeathTest, ShareFromASecondShardAsserts) {
  auto ref = LocalRef<int>::Make(7);
  {
    BufferOwnerScope first_shard(1);
    LocalRef<int> copy = ref;  // Shard 1 claims the value.
  }
  BufferOwnerScope second_shard(2);
  EXPECT_DEBUG_DEATH({ LocalRef<int> copy = ref; },
                     "LocalRef shared across shards");
}

TEST(BufferAliasTest, SliceOutlivesSegmentNicsAndSimulation) {
  BufferSlice kept;
  {
    Simulation sim;
    std::vector<Datagram> received;
    FanOutRig rig(&sim, 1, &received);
    ASSERT_TRUE(rig.sender->SendMulticast(100, Bytes{9, 8, 7, 6}).ok());
    sim.Run();
    ASSERT_EQ(received.size(), 1u);
    kept = received[0].payload;
    EXPECT_GE(kept.use_count(), 2);
  }  // Segment, NICs, pending events, and the sim itself are gone.
  EXPECT_EQ(kept.use_count(), 1);  // The slice is the last owner...
  EXPECT_EQ(kept, (Bytes{9, 8, 7, 6}));  // ...and the bytes are intact.
}

// --------------------------------------------------- steady-state allocs

// Serializes and multicasts one data packet, runs delivery, and has every
// receiver parse it (the receive handler stores the Datagram; parsing
// happens here to mimic the speaker's HandleDatagram front half).
void SendOnePacket(FanOutRig* rig, Simulation* sim,
                   std::vector<Datagram>* received, uint32_t seq) {
  DataPacket packet;
  packet.stream_id = 1;
  packet.seq = seq;
  packet.frame_count = 80;
  packet.payload = Bytes(320, static_cast<uint8_t>(seq));
  ASSERT_TRUE(
      rig->sender->SendMulticast(100, SerializePacketSlice(packet)).ok());
  sim->Run();
  for (const Datagram& d : *received) {
    Result<ParsedPacket> parsed = ParsePacket(d.payload);
    ASSERT_TRUE(parsed.ok());
  }
  received->clear();
}

TEST(BufferAllocTest, SteadyStateFanOutAllocationsArePinned) {
  // The full send -> 8-receiver -> parse path, measured with the global
  // operator-new hook (bench/alloc_hook.cc is linked into this binary).
  // After warmup the per-packet allocation count must be exactly stable
  // (window two == window one), and the payload itself must allocate once
  // and copy zero times per packet regardless of receiver count.
  Simulation sim;
  std::vector<Datagram> received;
  received.reserve(16);
  FanOutRig rig(&sim, 8, &received);

  for (uint32_t seq = 1; seq <= 32; ++seq) {  // Warmup: containers settle.
    SendOnePacket(&rig, &sim, &received, seq);
  }

  constexpr uint32_t kWindow = 64;
  uint64_t allocs_before = bench::AllocCount();
  ResetBufferCounters();
  for (uint32_t seq = 100; seq < 100 + kWindow; ++seq) {
    SendOnePacket(&rig, &sim, &received, seq);
  }
  uint64_t window_one = bench::AllocCount() - allocs_before;
  BufferCounters window_one_buffers = buffer_counters();

  allocs_before = bench::AllocCount();
  ResetBufferCounters();
  for (uint32_t seq = 200; seq < 200 + kWindow; ++seq) {
    SendOnePacket(&rig, &sim, &received, seq);
  }
  uint64_t window_two = bench::AllocCount() - allocs_before;

  EXPECT_EQ(window_one, window_two)
      << "steady-state per-packet allocations drifted between windows";
  // Two buffers per transmission (the generated PCM payload, then the
  // serialized wire image — both adopted, never copied), zero payload
  // copies anywhere on the path, and one share per receiver handoff at
  // minimum.
  EXPECT_EQ(window_one_buffers.buffers_created, 2 * kWindow);
  EXPECT_EQ(window_one_buffers.payload_copies, 0u);
  EXPECT_GE(window_one_buffers.shares, kWindow * 8u);
}

}  // namespace
}  // namespace espk
