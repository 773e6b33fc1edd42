// Tests for the executable Theorem 4.5 pipeline (Lemmas 4.1 / 4.2).
#include "bounds/pumping.hpp"

#include <gtest/gtest.h>

#include "oracle/graph.hpp"
#include "protocols/leader.hpp"
#include "protocols/threshold.hpp"

namespace ppsc {
namespace {

TEST(StableConfigurationForInput, PicksConsensusBottomMember) {
    const Protocol p = protocols::unary_threshold(3);
    const auto below = bounds::stable_configuration_for_input(p, 2);
    ASSERT_TRUE(below.has_value());
    EXPECT_EQ(p.consensus_output(*below), 0);
    EXPECT_EQ(below->size(), 2);

    const auto above = bounds::stable_configuration_for_input(p, 5);
    ASSERT_TRUE(above.has_value());
    EXPECT_EQ(p.consensus_output(*above), 1);
    EXPECT_EQ(above->size(), 5);
}

TEST(StableConfigurationForInput, IllSpecifiedInputGivesNullopt) {
    // Oscillator: its only bottom SCC is not a consensus.
    ProtocolBuilder b;
    const StateId a = b.add_state("A", 1);
    const StateId c = b.add_state("B", 0);
    b.set_input("x", a);
    b.add_transition(a, a, c, c);
    b.add_transition(c, c, a, a);
    const Protocol p = std::move(b).build();
    EXPECT_EQ(bounds::stable_configuration_for_input(p, 2), std::nullopt);
}

TEST(PumpingCertificate, CertifiesThresholdUpperBound) {
    // For a protocol computing x >= eta, Lemma 4.1 certificates must give
    // a >= eta (the verdict that pumps must be the accepting one, since
    // rejection cannot pump past the threshold).
    for (AgentCount eta = 2; eta <= 4; ++eta) {
        const Protocol p = protocols::unary_threshold(eta);
        bounds::PumpingOptions options;
        options.max_input = eta + 6;
        const auto certificate = bounds::find_pumping_certificate(p, options);
        ASSERT_TRUE(certificate.has_value()) << "eta=" << eta;
        EXPECT_EQ(certificate->verdict, 1) << "eta=" << eta;
        EXPECT_GE(certificate->a, eta) << "eta=" << eta;
        EXPECT_GT(certificate->b, 0);
        EXPECT_TRUE(certificate->stable_low.leq(certificate->stable_high));
        // The certificate witnesses eta <= a — consistent with the actual
        // threshold.
    }
}

TEST(PumpingCertificate, RejectingPairsAreFilteredByRecheck) {
    // Below the threshold, C_i <= C_j pairs with rejecting verdicts exist
    // for unary thresholds with larger eta (e.g. {v0...} patterns), but
    // pumping them crosses the threshold; the pipeline must reject such
    // candidates rather than emit a bogus certificate.
    const Protocol p = protocols::unary_threshold(5);
    bounds::PumpingOptions options;
    options.max_input = 12;
    const auto certificate = bounds::find_pumping_certificate(p, options);
    ASSERT_TRUE(certificate.has_value());
    EXPECT_EQ(certificate->verdict, 1);
    EXPECT_GE(certificate->a, 5);
}

TEST(PumpingCertificate, WorksWithLeaders) {
    const Protocol p = protocols::leader_threshold(2);
    bounds::PumpingOptions options;
    options.max_input = 8;
    const auto certificate = bounds::find_pumping_certificate(p, options);
    ASSERT_TRUE(certificate.has_value());
    EXPECT_EQ(certificate->verdict, 1);
    EXPECT_GE(certificate->a, 2);
}

TEST(PumpingCertificate, CollectorFamily) {
    const Protocol p = protocols::collector_threshold(5);
    bounds::PumpingOptions options;
    options.max_input = 11;
    const auto certificate = bounds::find_pumping_certificate(p, options);
    ASSERT_TRUE(certificate.has_value());
    EXPECT_EQ(certificate->verdict, 1);
    EXPECT_GE(certificate->a, 5);
    EXPECT_LE(certificate->a, 11);
}

TEST(PumpingCertificate, SelectionMatchesPerComponentRescanOracle) {
    const Protocol p = protocols::unary_threshold(3);
    bounds::PumpingOptions options;
    options.max_input = 9;
    const auto certificate = bounds::find_pumping_certificate(p, options);
    ASSERT_TRUE(certificate.has_value());
    EXPECT_EQ(certificate->stable_low, oracle::stable_configuration_for_input(p, certificate->a));
    EXPECT_EQ(certificate->stable_high,
              oracle::stable_configuration_for_input(p, certificate->a + certificate->b));
}

TEST(PumpingCertificate, RequiresSingleInputVariable) {
    ProtocolBuilder b;
    const StateId a = b.add_state("A", 1);
    const StateId c = b.add_state("B", 0);
    b.set_input("A", a);
    b.set_input("B", c);
    const Protocol p = std::move(b).build();
    EXPECT_THROW(bounds::find_pumping_certificate(p, {}), std::invalid_argument);
}

}  // namespace
}  // namespace ppsc
