#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "src/base/prng.h"
#include "src/lan/segment.h"
#include "src/lan/udp_transport.h"
#include "src/sim/shard.h"
#include "src/sim/simulation.h"

namespace espk {
namespace {

TEST(SegmentTest, MulticastReachesOnlyJoinedNics) {
  Simulation sim;
  EthernetSegment segment(&sim, SegmentConfig{});
  auto sender = segment.CreateNic();
  auto member = segment.CreateNic();
  auto outsider = segment.CreateNic();

  ASSERT_TRUE(member->JoinGroup(42).ok());
  int member_got = 0;
  int outsider_got = 0;
  member->SetReceiveHandler([&](const Datagram&) { ++member_got; });
  outsider->SetReceiveHandler([&](const Datagram&) { ++outsider_got; });

  ASSERT_TRUE(sender->SendMulticast(42, {1, 2, 3}).ok());
  sim.Run();
  EXPECT_EQ(member_got, 1);
  EXPECT_EQ(outsider_got, 0);
}

TEST(SegmentTest, SenderDoesNotHearItsOwnMulticast) {
  Simulation sim;
  EthernetSegment segment(&sim, SegmentConfig{});
  auto sender = segment.CreateNic();
  ASSERT_TRUE(sender->JoinGroup(7).ok());
  int got = 0;
  sender->SetReceiveHandler([&](const Datagram&) { ++got; });
  ASSERT_TRUE(sender->SendMulticast(7, {1}).ok());
  sim.Run();
  EXPECT_EQ(got, 0);
}

TEST(SegmentTest, LeaveGroupStopsDelivery) {
  Simulation sim;
  EthernetSegment segment(&sim, SegmentConfig{});
  auto sender = segment.CreateNic();
  auto member = segment.CreateNic();
  ASSERT_TRUE(member->JoinGroup(42).ok());
  int got = 0;
  member->SetReceiveHandler([&](const Datagram&) { ++got; });
  ASSERT_TRUE(sender->SendMulticast(42, {1}).ok());
  sim.Run();
  ASSERT_TRUE(member->LeaveGroup(42).ok());
  ASSERT_TRUE(sender->SendMulticast(42, {2}).ok());
  sim.Run();
  EXPECT_EQ(got, 1);
  EXPECT_FALSE(member->LeaveGroup(42).ok());  // Already left.
}

TEST(SegmentTest, MembershipChurnMidStream) {
  Simulation sim;
  EthernetSegment segment(&sim, SegmentConfig{});
  auto sender = segment.CreateNic();
  auto member = segment.CreateNic();
  int got = 0;
  member->SetReceiveHandler([&](const Datagram&) { ++got; });

  ASSERT_TRUE(member->JoinGroup(42).ok());
  EXPECT_EQ(segment.GroupMemberCount(42), 1u);
  ASSERT_TRUE(sender->SendMulticast(42, {1}).ok());
  sim.Run();
  EXPECT_EQ(got, 1);

  ASSERT_TRUE(member->LeaveGroup(42).ok());
  EXPECT_EQ(segment.GroupMemberCount(42), 0u);
  ASSERT_TRUE(sender->SendMulticast(42, {2}).ok());
  sim.Run();
  EXPECT_EQ(got, 1);  // Missed while out.

  ASSERT_TRUE(member->JoinGroup(42).ok());  // Re-join mid-stream.
  EXPECT_EQ(segment.GroupMemberCount(42), 1u);
  ASSERT_TRUE(sender->SendMulticast(42, {3}).ok());
  sim.Run();
  EXPECT_EQ(got, 2);
}

TEST(SegmentTest, DoubleJoinIsIdempotent) {
  Simulation sim;
  EthernetSegment segment(&sim, SegmentConfig{});
  auto nic = segment.CreateNic();
  ASSERT_TRUE(nic->JoinGroup(9).ok());
  ASSERT_TRUE(nic->JoinGroup(9).ok());
  EXPECT_EQ(segment.GroupMemberCount(9), 1u);
  ASSERT_TRUE(nic->LeaveGroup(9).ok());
  EXPECT_EQ(segment.GroupMemberCount(9), 0u);
  EXPECT_FALSE(nic->LeaveGroup(9).ok());
}

TEST(SegmentTest, JoinLatencyDefersMembership) {
  Simulation sim;
  SegmentConfig config;
  config.join_latency = Milliseconds(5);
  EthernetSegment segment(&sim, config);
  auto sender = segment.CreateNic();
  auto member = segment.CreateNic();
  int got = 0;
  member->SetReceiveHandler([&](const Datagram&) { ++got; });

  // A join takes effect join_latency later; traffic sent before that fans
  // out past the not-yet-member.
  ASSERT_TRUE(member->JoinGroup(42).ok());
  EXPECT_FALSE(member->IsJoined(42));
  ASSERT_TRUE(sender->SendMulticast(42, {1}).ok());
  sim.RunUntil(Milliseconds(10));
  EXPECT_TRUE(member->IsJoined(42));
  EXPECT_EQ(got, 0);
  ASSERT_TRUE(sender->SendMulticast(42, {2}).ok());
  sim.RunUntil(Milliseconds(20));
  EXPECT_EQ(got, 1);

  // Leaving is deferred the same way: the NIC keeps hearing the group until
  // the latency elapses.
  ASSERT_TRUE(member->LeaveGroup(42).ok());
  EXPECT_TRUE(member->IsJoined(42));
  ASSERT_TRUE(sender->SendMulticast(42, {3}).ok());
  sim.RunUntil(Milliseconds(30));
  EXPECT_FALSE(member->IsJoined(42));
  EXPECT_EQ(got, 2);
  ASSERT_TRUE(sender->SendMulticast(42, {4}).ok());
  sim.Run();
  EXPECT_EQ(got, 2);
}

TEST(SegmentTest, UnicastReachesOnlyDestination) {
  Simulation sim;
  EthernetSegment segment(&sim, SegmentConfig{});
  auto a = segment.CreateNic();
  auto b = segment.CreateNic();
  auto c = segment.CreateNic();
  int b_got = 0;
  int c_got = 0;
  b->SetReceiveHandler([&](const Datagram& d) {
    ++b_got;
    EXPECT_EQ(d.source, a->node_id());
  });
  c->SetReceiveHandler([&](const Datagram&) { ++c_got; });
  ASSERT_TRUE(a->SendUnicast(b->node_id(), {9}).ok());
  sim.Run();
  EXPECT_EQ(b_got, 1);
  EXPECT_EQ(c_got, 0);
}

TEST(SegmentTest, DeliveryDelayedByBaseDelayAndTransmission) {
  Simulation sim;
  SegmentConfig config;
  config.bandwidth_bps = 8e6;      // 1 MB/s.
  config.base_delay = Microseconds(100);
  config.overhead_bytes = 0;
  EthernetSegment segment(&sim, config);
  auto sender = segment.CreateNic();
  auto receiver = segment.CreateNic();
  ASSERT_TRUE(receiver->JoinGroup(1).ok());
  SimTime arrival = -1;
  receiver->SetReceiveHandler([&](const Datagram&) { arrival = sim.now(); });
  Bytes payload(1000);  // 1 ms on the wire at 1 MB/s.
  ASSERT_TRUE(sender->SendMulticast(1, payload).ok());
  sim.Run();
  EXPECT_EQ(arrival, Milliseconds(1) + Microseconds(100));
}

TEST(SegmentTest, SharedMediumSerializesTransmissions) {
  Simulation sim;
  SegmentConfig config;
  config.bandwidth_bps = 8e6;
  config.base_delay = 0;
  config.overhead_bytes = 0;
  EthernetSegment segment(&sim, config);
  auto sender = segment.CreateNic();
  auto receiver = segment.CreateNic();
  ASSERT_TRUE(receiver->JoinGroup(1).ok());
  std::vector<SimTime> arrivals;
  receiver->SetReceiveHandler([&](const Datagram&) {
    arrivals.push_back(sim.now());
  });
  // Two back-to-back 1 ms packets: second must arrive 1 ms after the first.
  Bytes payload(1000);
  ASSERT_TRUE(sender->SendMulticast(1, payload).ok());
  ASSERT_TRUE(sender->SendMulticast(1, payload).ok());
  sim.Run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[1] - arrivals[0], Milliseconds(1));
}

TEST(SegmentTest, TxQueueOverflowDropsPackets) {
  Simulation sim;
  SegmentConfig config;
  config.bandwidth_bps = 8e3;  // 1 KB/s: trivially saturated.
  config.tx_queue_limit = 2000;
  config.overhead_bytes = 0;
  EthernetSegment segment(&sim, config);
  auto sender = segment.CreateNic();
  auto receiver = segment.CreateNic();
  ASSERT_TRUE(receiver->JoinGroup(1).ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(sender->SendMulticast(1, Bytes(1000)).ok());
  }
  sim.Run();
  EXPECT_GT(segment.stats().packets_dropped_queue, 0u);
  EXPECT_LT(segment.stats().packets_sent, 50u);
  EXPECT_EQ(segment.stats().packets_offered, 50u);
}

TEST(SegmentTest, RandomLossDropsApproximatelyTheConfiguredFraction) {
  Simulation sim;
  SegmentConfig config;
  config.loss_probability = 0.2;
  EthernetSegment segment(&sim, config);
  auto sender = segment.CreateNic();
  auto receiver = segment.CreateNic();
  ASSERT_TRUE(receiver->JoinGroup(1).ok());
  int got = 0;
  receiver->SetReceiveHandler([&](const Datagram&) { ++got; });
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(sender->SendMulticast(1, {1, 2}).ok());
  }
  sim.Run();
  EXPECT_NEAR(got, 1600, 80);
  EXPECT_NEAR(static_cast<double>(segment.stats().deliveries_lost), 400.0,
              80.0);
}

TEST(SegmentTest, JitterViolatesUniformDelivery) {
  // With jitter, two receivers hear the same multicast at different times —
  // the §3.2 assumption is violable on demand.
  Simulation sim;
  SegmentConfig config;
  config.jitter = Milliseconds(10);
  EthernetSegment segment(&sim, config);
  auto sender = segment.CreateNic();
  auto r1 = segment.CreateNic();
  auto r2 = segment.CreateNic();
  ASSERT_TRUE(r1->JoinGroup(1).ok());
  ASSERT_TRUE(r2->JoinGroup(1).ok());
  std::vector<SimTime> t1;
  std::vector<SimTime> t2;
  r1->SetReceiveHandler([&](const Datagram&) { t1.push_back(sim.now()); });
  r2->SetReceiveHandler([&](const Datagram&) { t2.push_back(sim.now()); });
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(sender->SendMulticast(1, {7}).ok());
  }
  sim.Run();
  ASSERT_EQ(t1.size(), 50u);
  ASSERT_EQ(t2.size(), 50u);
  bool any_differ = false;
  for (size_t i = 0; i < 50; ++i) {
    if (t1[i] != t2[i]) {
      any_differ = true;
    }
  }
  EXPECT_TRUE(any_differ);
}

TEST(SegmentTest, WithoutJitterDeliveryIsUniform) {
  Simulation sim;
  EthernetSegment segment(&sim, SegmentConfig{});
  auto sender = segment.CreateNic();
  auto r1 = segment.CreateNic();
  auto r2 = segment.CreateNic();
  ASSERT_TRUE(r1->JoinGroup(1).ok());
  ASSERT_TRUE(r2->JoinGroup(1).ok());
  SimTime t1 = -1;
  SimTime t2 = -2;
  r1->SetReceiveHandler([&](const Datagram&) { t1 = sim.now(); });
  r2->SetReceiveHandler([&](const Datagram&) { t2 = sim.now(); });
  ASSERT_TRUE(sender->SendMulticast(1, {7}).ok());
  sim.Run();
  EXPECT_EQ(t1, t2);  // "Everybody receives a multicast packet at the same
                      // time" (§3.2).
}

TEST(SegmentTest, WireUtilizationAccountsOverhead) {
  Simulation sim;
  SegmentConfig config;
  config.overhead_bytes = 66;
  EthernetSegment segment(&sim, config);
  auto sender = segment.CreateNic();
  auto receiver = segment.CreateNic();
  ASSERT_TRUE(receiver->JoinGroup(1).ok());
  ASSERT_TRUE(sender->SendMulticast(1, Bytes(934)).ok());
  sim.Run();
  EXPECT_EQ(segment.stats().bytes_on_wire, 1000u);
}

TEST(SegmentTest, GroupZeroIsReserved) {
  Simulation sim;
  EthernetSegment segment(&sim, SegmentConfig{});
  auto nic = segment.CreateNic();
  EXPECT_FALSE(nic->JoinGroup(0).ok());
  EXPECT_FALSE(nic->SendMulticast(0, {1}).ok());
}

// Destroying NICs in any order keeps the survivors in creation order, which
// is the order fan-out visits receivers and draws their loss: the survivors
// of a 12-receiver segment see exactly what the receivers of a fresh
// 7-receiver segment with the same seed see, in the same order.
TEST(SegmentTest, DetachOutOfOrderKeepsCreationOrder) {
  SegmentConfig config;
  config.loss_probability = 0.3;
  using Arrival = std::pair<int, size_t>;  // (packet, receiver position)

  auto run = [&](size_t receivers, const std::vector<size_t>& destroy,
                 size_t* members) {
    Simulation sim;
    EthernetSegment segment(&sim, config);
    auto sender = segment.CreateNic();
    std::vector<std::unique_ptr<SimNic>> nics;
    for (size_t i = 0; i < receivers; ++i) {
      nics.push_back(segment.CreateNic());
      EXPECT_TRUE(nics.back()->JoinGroup(9).ok());
    }
    for (size_t index : destroy) {
      nics[index].reset();
    }
    std::vector<Arrival> arrivals;
    int packet = 0;
    size_t position = 0;
    for (auto& nic : nics) {
      if (nic != nullptr) {
        nic->SetReceiveHandler([&arrivals, &packet, position](const Datagram&) {
          arrivals.emplace_back(packet, position);
        });
        ++position;
      }
    }
    *members = segment.GroupMemberCount(9);
    for (packet = 0; packet < 40; ++packet) {
      EXPECT_TRUE(sender->SendMulticast(9, {1, 2, 3}).ok());
      sim.Run();
    }
    return arrivals;
  };

  size_t detached_members = 0;
  const std::vector<Arrival> detached =
      run(12, {7, 2, 11, 0, 5}, &detached_members);
  size_t fresh_members = 0;
  const std::vector<Arrival> fresh = run(7, {}, &fresh_members);
  EXPECT_EQ(detached_members, 7u);
  EXPECT_EQ(fresh_members, 7u);
  ASSERT_FALSE(fresh.empty());
  EXPECT_LT(fresh.size(), 7u * 40u);  // Some deliveries were lost.
  EXPECT_EQ(detached, fresh);
}

// ------------------------------------------------------- zone routing --

// Records the member tags of every batch it receives.
class RecordingZoneSink : public ZoneSink {
 public:
  void DeliverBatch(const Datagram&,
                    std::vector<ZoneDeliveryEntry> entries) override {
    for (const ZoneDeliveryEntry& entry : entries) {
      members.push_back(entry.member);
    }
  }
  std::vector<int> members;
};

ShardGroup::Options ZoneShardOptions(int shards) {
  ShardGroup::Options options;
  options.shards = shards;
  options.lookahead = SegmentConfig{}.base_delay;
  return options;
}

// AssignZone takes the NIC over: the handler installed before it (the
// speaker's own) is dropped and deliveries go to the zone sink. A handler
// installed afterwards marks the NIC as shared, for the sink to honour.
TEST(SegmentZoneTest, AssignZoneDropsTheEarlierReceiveHandler) {
  ShardGroup shards(ZoneShardOptions(1));
  EthernetSegment segment(shards.sim(0), SegmentConfig{});
  segment.EnableSharding(&shards, /*home_shard=*/0);
  RecordingZoneSink sink;
  segment.RegisterZoneSink(0, &sink);
  auto sender = segment.CreateNic();
  auto member = segment.CreateNic();
  int handled = 0;
  member->SetReceiveHandler([&](const Datagram&) { ++handled; });
  ASSERT_TRUE(member->JoinGroup(1).ok());
  segment.AssignZone(member.get(), 0, /*member=*/7);
  EXPECT_FALSE(member->has_receive_handler());

  ASSERT_TRUE(sender->SendMulticast(1, {1, 2, 3}).ok());
  shards.sim(0)->Run();
  EXPECT_EQ(handled, 0);
  EXPECT_EQ(sink.members, std::vector<int>{7});

  member->SetReceiveHandler([&](const Datagram&) { ++handled; });
  EXPECT_TRUE(member->has_receive_handler());
}

// The segment's group -> receiver index against a reference that knows
// nothing of it: a seeded random sequence of joins, leaves, out-of-order NIC
// destruction and AssignZone after a join, with loss and jitter on. Every
// GroupMemberCount must equal a count of IsJoined over all NICs, and every
// packet's (node, arrival) deliveries must equal what a walk of all NICs in
// creation order draws from a Prng seeded like the segment's.
class TaggingZoneSink : public ZoneSink {
 public:
  explicit TaggingZoneSink(std::vector<std::pair<NodeId, SimTime>>* out)
      : out_(out) {}
  void DeliverBatch(const Datagram&,
                    std::vector<ZoneDeliveryEntry> entries) override {
    for (const ZoneDeliveryEntry& entry : entries) {
      // Members are tagged with their node id.
      out_->emplace_back(static_cast<NodeId>(entry.member), entry.arrival);
    }
  }

 private:
  std::vector<std::pair<NodeId, SimTime>>* out_;
};

void RunReceiverIndexScenario(SimDuration join_latency, uint64_t seed) {
  SegmentConfig config;
  config.loss_probability = 0.3;
  config.jitter = Microseconds(200);
  config.join_latency = join_latency;
  config.seed = seed;
  ShardGroup shards(ZoneShardOptions(2));
  EthernetSegment segment(shards.sim(0), config);
  segment.EnableSharding(&shards, /*home_shard=*/0);
  std::vector<std::pair<NodeId, SimTime>> delivered;
  TaggingZoneSink home_sink(&delivered);
  TaggingZoneSink far_sink(&delivered);
  segment.RegisterZoneSink(0, &home_sink);
  segment.RegisterZoneSink(1, &far_sink);

  // Creation order; destroyed NICs stay as null slots.
  std::vector<std::unique_ptr<SimNic>> nics;
  std::vector<bool> zoned;
  auto add_nic = [&] {
    nics.push_back(segment.CreateNic());
    zoned.push_back(false);
    SimNic* nic = nics.back().get();
    nic->SetReceiveHandler([&delivered, &shards, nic](const Datagram&) {
      delivered.emplace_back(nic->node_id(), shards.sim(0)->now());
    });
  };
  for (int i = 0; i < 24; ++i) {
    add_nic();
  }
  SimNic* sender = nics[0].get();
  const std::vector<GroupId> groups = {9, 10};

  Prng ops(seed * 7 + 1);
  Prng reference(seed);  // Draws exactly as the segment's own Prng does.
  uint64_t expected_deliveries = 0;
  uint64_t expected_lost = 0;
  auto pick_live = [&]() -> size_t {
    for (;;) {
      const size_t i = ops.NextBelow(nics.size());
      if (nics[i] != nullptr) return i;
    }
  };

  for (int step = 0; step < 300; ++step) {
    const uint64_t op = ops.NextBelow(100);
    const size_t i = pick_live();
    const GroupId group = groups[ops.NextBelow(groups.size())];
    if (op < 40) {
      ASSERT_TRUE(nics[i]->JoinGroup(group).ok());
    } else if (op < 60) {
      (void)nics[i]->LeaveGroup(group);  // NotFound when never joined.
    } else if (op < 70 && i != 0) {
      nics[i].reset();  // Possibly with a membership change in flight.
    } else if (op < 80 && i != 0 && !zoned[i]) {
      const int shard = static_cast<int>(ops.NextBelow(2));
      segment.AssignZone(nics[i].get(), shard,
                         static_cast<int>(nics[i]->node_id()));
      zoned[i] = true;
    } else if (op < 84) {
      add_nic();
    }
    shards.RunUntil(shards.now() +
                    static_cast<SimDuration>(ops.NextBelow(400'000)));

    for (GroupId g : groups) {
      size_t joined = 0;
      for (const auto& nic : nics) {
        if (nic != nullptr && nic->IsJoined(g)) ++joined;
      }
      ASSERT_EQ(segment.GroupMemberCount(g), joined)
          << "group " << g << " step " << step;
    }

    // Reference fan-out of one packet: every NIC in creation order. The
    // send runs as a home-shard event, as a real sender's would, so its
    // cross-shard batch is posted inside an epoch.
    const GroupId send_group = groups[ops.NextBelow(groups.size())];
    std::vector<std::pair<NodeId, SimTime>> expected;
    delivered.clear();
    shards.sim(0)->ScheduleAt(shards.now(), [&] {
      const size_t wire_bytes = 3 + config.overhead_bytes;
      const SimTime wire_done =
          shards.sim(0)->now() +
          static_cast<SimDuration>(static_cast<double>(wire_bytes) * 8.0 /
                                   config.bandwidth_bps *
                                   static_cast<double>(kSecond));
      for (const auto& nic : nics) {
        if (nic == nullptr || nic.get() == sender ||
            !nic->IsJoined(send_group)) {
          continue;
        }
        ++expected_deliveries;
        if (reference.NextBool(config.loss_probability)) {
          ++expected_lost;
          continue;
        }
        expected.emplace_back(
            nic->node_id(),
            wire_done + config.base_delay +
                static_cast<SimDuration>(reference.NextBelow(
                    static_cast<uint64_t>(config.jitter))));
      }
      EXPECT_TRUE(sender->SendMulticast(send_group, {1, 2, 3}).ok());
    });
    shards.RunUntil(shards.now() + Milliseconds(1));
    std::sort(expected.begin(), expected.end());
    std::sort(delivered.begin(), delivered.end());
    ASSERT_EQ(delivered, expected) << "step " << step;
    ASSERT_EQ(segment.stats().deliveries, expected_deliveries);
    ASSERT_EQ(segment.stats().deliveries_lost, expected_lost);
  }
  EXPECT_GT(expected_deliveries, 500u);
  EXPECT_GT(expected_lost, 0u);
}

TEST(SegmentZoneTest, ReceiverIndexMatchesFullScanImmediateMembership) {
  RunReceiverIndexScenario(/*join_latency=*/0, /*seed=*/101);
}

TEST(SegmentZoneTest, ReceiverIndexMatchesFullScanDeferredMembership) {
  RunReceiverIndexScenario(/*join_latency=*/Microseconds(300), /*seed=*/202);
}

// A receive handler on a NIC whose zone lives off the home shard would run
// on that zone's shard and transmit into home-shard state mid-epoch.
TEST(SegmentZoneDeathTest, HandlerOnOffHomeZoneNicAsserts) {
  ShardGroup shards(ZoneShardOptions(2));
  EthernetSegment segment(shards.sim(0), SegmentConfig{});
  segment.EnableSharding(&shards, /*home_shard=*/0);
  RecordingZoneSink home_sink;
  RecordingZoneSink far_sink;
  segment.RegisterZoneSink(0, &home_sink);
  segment.RegisterZoneSink(1, &far_sink);
  auto home = segment.CreateNic();
  auto far = segment.CreateNic();
  segment.AssignZone(home.get(), 0, 0);
  segment.AssignZone(far.get(), 1, 0);
  home->SetReceiveHandler([](const Datagram&) {});
  EXPECT_TRUE(home->has_receive_handler());
  EXPECT_DEBUG_DEATH(far->SetReceiveHandler([](const Datagram&) {}),
                     "home shard only");
  far->SetReceiveHandler(nullptr);  // Clearing is always allowed.
}

// ----------------------------------------------------------- UDP backend --

TEST(UdpTransportTest, LoopbackMulticastRoundTrip) {
  UdpTransportConfig config;
  config.port = 49100;
  UdpMulticastTransport sender(1, config);
  UdpMulticastTransport receiver(2, config);
  if (!sender.status().ok() || !receiver.status().ok()) {
    GTEST_SKIP() << "UDP sockets unavailable in this environment: "
                 << sender.status().ToString();
  }
  ASSERT_TRUE(receiver.JoinGroup(5).ok());
  Bytes got;
  receiver.SetReceiveHandler([&](const Datagram& d) { got = d.payload.ToBytes(); });
  ASSERT_TRUE(sender.SendMulticast(5, {10, 20, 30}).ok());
  // Poll a few times; loopback delivery is fast but not synchronous.
  for (int i = 0; i < 100 && got.empty(); ++i) {
    receiver.Poll();
    usleep(1000);
  }
  if (got.empty()) {
    GTEST_SKIP() << "loopback multicast not routable here";
  }
  EXPECT_EQ(got, Bytes({10, 20, 30}));
}

TEST(UdpTransportTest, UnicastRoundTrip) {
  UdpTransportConfig config;
  config.port = 49200;
  UdpMulticastTransport a(1, config);
  UdpMulticastTransport b(2, config);
  if (!a.status().ok() || !b.status().ok()) {
    GTEST_SKIP() << "UDP sockets unavailable in this environment";
  }
  Bytes got;
  b.SetReceiveHandler([&](const Datagram& d) { got = d.payload.ToBytes(); });
  ASSERT_TRUE(a.SendUnicast(2, {1, 2, 3, 4}).ok());
  for (int i = 0; i < 100 && got.empty(); ++i) {
    b.Poll();
    usleep(1000);
  }
  EXPECT_EQ(got, Bytes({1, 2, 3, 4}));
}

}  // namespace
}  // namespace espk
