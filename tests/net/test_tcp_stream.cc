/**
 * @file
 * TCP transfer model: lossless throughput near line rate, graceful
 * degradation under loss, recovery-event accounting (the SmartNIC
 * resync trigger), and loss-injector statistics.
 */

#include <gtest/gtest.h>

#include "net/loss_model.h"
#include "net/tcp_stream.h"

namespace {

using namespace sd;
using net::LossConfig;
using net::LossInjector;
using net::tcpTransfer;

TEST(LossInjector, ZeroProbabilityNeverDrops)
{
    LossInjector injector({}, 1);
    for (int i = 0; i < 1000; ++i)
        EXPECT_FALSE(injector.shouldDrop());
    EXPECT_EQ(injector.drops(), 0u);
}

TEST(LossInjector, DropFrequencyMatchesProbability)
{
    LossConfig cfg;
    cfg.drop_prob = 0.05;
    LossInjector injector(cfg, 2);
    int drops = 0;
    constexpr int kN = 20000;
    for (int i = 0; i < kN; ++i)
        drops += injector.shouldDrop();
    EXPECT_NEAR(static_cast<double>(drops) / kN, 0.05, 0.01);
}

TEST(LossInjector, BurstsDropConsecutively)
{
    LossConfig cfg;
    cfg.drop_prob = 0.01;
    cfg.burst_len = 4;
    LossInjector injector(cfg, 3);
    // Once a drop starts, the next three must drop too.
    for (int i = 0; i < 100000; ++i) {
        if (injector.shouldDrop()) {
            EXPECT_TRUE(injector.shouldDrop());
            EXPECT_TRUE(injector.shouldDrop());
            EXPECT_TRUE(injector.shouldDrop());
            break;
        }
    }
}

TEST(TcpTransfer, LosslessApproachesLineRate)
{
    const auto result = tcpTransfer(256ull << 20, {});
    EXPECT_GT(result.goodput_gbps, net::kLinkGbps * 0.5);
    EXPECT_EQ(result.retransmits, 0u);
    EXPECT_EQ(result.resyncEvents(), 0u);
}

TEST(TcpTransfer, ThroughputDecreasesWithLoss)
{
    double prev = 1e9;
    for (double p : {0.0, 0.001, 0.005, 0.02}) {
        LossConfig loss;
        loss.drop_prob = p;
        const auto result = tcpTransfer(64ull << 20, loss, 7);
        EXPECT_LT(result.goodput_gbps, prev * 1.05)
            << "throughput must not grow with loss (p=" << p << ")";
        prev = result.goodput_gbps;
    }
}

TEST(TcpTransfer, LossTriggersRecoveries)
{
    LossConfig loss;
    loss.drop_prob = 0.01;
    const auto result = tcpTransfer(32ull << 20, loss, 8);
    EXPECT_GT(result.retransmits, 0u);
    EXPECT_GT(result.resyncEvents(), 0u);
}

TEST(TcpTransfer, ReorderingCountsAsResyncTrigger)
{
    LossConfig loss;
    loss.reorder_prob = 0.01;
    const auto result = tcpTransfer(8ull << 20, loss, 9);
    EXPECT_GT(result.reorder_events, 0u);
    EXPECT_GT(result.resyncEvents(), 0u);
}

TEST(TcpTransfer, SmallTransferCompletes)
{
    const auto result = tcpTransfer(1000, {});
    EXPECT_GT(result.seconds, 0.0);
    EXPECT_EQ(result.segments_sent, 1u);
}

TEST(TcpTransfer, DeterministicGivenSeed)
{
    LossConfig loss;
    loss.drop_prob = 0.005;
    const auto a = tcpTransfer(16ull << 20, loss, 42);
    const auto b = tcpTransfer(16ull << 20, loss, 42);
    EXPECT_EQ(a.seconds, b.seconds);
    EXPECT_EQ(a.retransmits, b.retransmits);
}

} // namespace
