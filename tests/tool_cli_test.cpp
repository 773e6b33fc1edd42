// Regression tests driving the real protocol_tool binary: degenerate and
// hostile inputs must produce a one-line diagnostic and a failure exit
// code (never a crash, never a silent misparse), and the checkpointed
// longrun must survive a hard SIGKILL and resume to the digest of an
// uninterrupted run.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct RunResult {
    int exit_code = -1;       ///< WEXITSTATUS, or -1 when not exited normally
    int term_signal = 0;      ///< terminating signal, 0 when exited normally
    std::string output;       ///< combined stdout+stderr
};

/// Runs `protocol_tool <args>` through the shell, capturing both streams;
/// `prefix` (e.g. a `timeout` wrapper) goes in front of the tool.
RunResult run_tool(const std::string& args, const std::string& prefix = "") {
    const std::string command = prefix + PPSC_TOOL_PATH + " " + args + " 2>&1";
    std::FILE* pipe = ::popen(command.c_str(), "r");
    EXPECT_NE(pipe, nullptr);
    RunResult result;
    char buffer[4096];
    std::size_t got;
    while ((got = std::fread(buffer, 1, sizeof buffer, pipe)) > 0)
        result.output.append(buffer, got);
    const int status = ::pclose(pipe);
    if (WIFEXITED(status)) result.exit_code = WEXITSTATUS(status);
    if (WIFSIGNALED(status)) result.term_signal = WTERMSIG(status);
    return result;
}

/// Scratch directory with a generated double_exp(3) protocol file.
struct ToolFixture : ::testing::Test {
    void SetUp() override {
        dir = fs::temp_directory_path() / ("ppsc-tool-cli-" + std::to_string(::getpid()));
        fs::remove_all(dir);
        fs::create_directories(dir);
        pp = (dir / "d3.pp").string();
        const RunResult family = run_tool("family double_exp 3");
        ASSERT_EQ(family.exit_code, 0) << family.output;
        std::ofstream(pp) << family.output;
    }
    void TearDown() override {
        std::error_code ec;
        fs::remove_all(dir, ec);
    }
    fs::path dir;
    std::string pp;
};

// --- degenerate inputs -----------------------------------------------------

TEST_F(ToolFixture, RejectsNonNumericPopulation) {
    for (const char* bad : {"abc", "12x", "", "-5", "1", "0"}) {
        const RunResult r = run_tool("simulate " + pp + " '" + bad + "'");
        EXPECT_EQ(r.exit_code, 1) << "population '" << bad << "': " << r.output;
        EXPECT_NE(r.output.find("population"), std::string::npos) << r.output;
    }
}

TEST_F(ToolFixture, RejectsNonNumericEta) {
    const RunResult r = run_tool("verify " + pp + " 16x");
    EXPECT_EQ(r.exit_code, 1);
    EXPECT_NE(r.output.find("eta"), std::string::npos) << r.output;
}

TEST_F(ToolFixture, RejectsFamilyParametersOutsideIntRange) {
    // Narrowed to int, these would build double_exp(2), double_exp_dense(1),
    // binary(3) and cascade(3, 2).  The collector family stops at 2^40.
    for (const char* args : {"double_exp 4294967298", "double_exp_dense 4294967297",
                             "binary 4294967299", "cascade 4294967299 2",
                             "collector 1099511627776"}) {
        const RunResult r = run_tool(std::string("family ") + args);
        EXPECT_EQ(r.exit_code, 1) << args << ": " << r.output;
        EXPECT_NE(r.output.find("error: "), std::string::npos) << args << ": " << r.output;
    }
}

TEST_F(ToolFixture, RejectsFamilyParametersPastTheirBounds) {
    // unary builds (eta+1)(eta+2)/2 transitions and leader an eta-sized
    // counter: past 2^10 and 2^20 they fail with a typed error instead of
    // allocating without bound.
    for (const char* args : {"unary 1025", "unary 1000000", "leader 1048577",
                             "leader 1000000000000"}) {
        const RunResult r = run_tool(std::string("family ") + args);
        EXPECT_EQ(r.exit_code, 1) << args << ": " << r.output;
        EXPECT_NE(r.output.find("error: "), std::string::npos) << args << ": " << r.output;
    }
}

TEST_F(ToolFixture, RejectsMissingFile) {
    const RunResult r = run_tool("info " + (dir / "no-such-file.pp").string());
    EXPECT_EQ(r.exit_code, 1);
    EXPECT_NE(r.output.find("error:"), std::string::npos) << r.output;
}

TEST_F(ToolFixture, RejectsMalformedProtocolFile) {
    const std::string bad = (dir / "bad.pp").string();
    std::ofstream(bad) << "state q0 2\ntrans q0 -> q0\n";  // bad output + arity
    const RunResult r = run_tool("info " + bad);
    EXPECT_EQ(r.exit_code, 1);
    EXPECT_NE(r.output.find("error:"), std::string::npos) << r.output;
}

TEST_F(ToolFixture, RejectsUnknownCommandAndUnknownFlag) {
    EXPECT_EQ(run_tool("frobnicate " + pp).exit_code, 1);
    EXPECT_EQ(run_tool("simulate " + pp + " 100 --frobnicate").exit_code, 1);
    EXPECT_EQ(run_tool("longrun " + pp + " 100 1000 --resume").exit_code, 1)
        << "--resume without --checkpoint-dir must be rejected";
    EXPECT_EQ(run_tool("longrun " + pp + " 100 1000 --checkpoint-dir").exit_code, 1)
        << "--checkpoint-dir without a value must be rejected";
    EXPECT_EQ(run_tool("longrun " + pp + " 100 1000 --checkpoint-dir x --checkpoint-every 0")
                  .exit_code,
              1)
        << "zero cadence must be rejected";
}

TEST_F(ToolFixture, RejectsCheckpointFlagsTheCommandWouldIgnore) {
    // Only longrun and sweep checkpoint; sweep resumes per trial on its own
    // and has no crash injection; and the rotation depth, resume and crash
    // injection need --checkpoint-dir.  A flag that would do nothing is an
    // error naming the flag, never a silent no-op.
    const std::string ck = " --checkpoint-dir " + (dir / "ck").string();
    const struct {
        std::string args;
        const char* flag;
    } cases[] = {
        {"sweep " + pp + " 16 64,128 2 1" + ck + " --die-after 10", "--die-after"},
        {"sweep " + pp + " 16 64,128 2 1" + ck + " --resume", "--resume"},
        {"info " + pp + ck, "--checkpoint-dir"},
        {"dot " + pp + " --checkpoint-every 5", "--checkpoint-every"},
        {"verify " + pp + " 16 --checkpoint-keep 2", "--checkpoint-keep"},
        {"simulate " + pp + " 100" + ck + " --resume", "--checkpoint-dir"},
        // Without a directory the rotation depth does nothing (the cadence
        // still paces the stop checks).
        {"longrun " + pp + " 512 300000 7 --checkpoint-every 1000 --checkpoint-keep 5",
         "--checkpoint-keep needs --checkpoint-dir"},
        {"sweep " + pp + " 256 512,1024 4 7 --checkpoint-keep 5",
         "--checkpoint-keep needs --checkpoint-dir"},
    };
    for (const auto& c : cases) {
        const RunResult r = run_tool(c.args);
        EXPECT_EQ(r.exit_code, 1) << c.args << "\n" << r.output;
        EXPECT_NE(r.output.find("error: "), std::string::npos) << r.output;
        EXPECT_NE(r.output.find(c.flag), std::string::npos) << c.args << "\n" << r.output;
    }
    EXPECT_FALSE(fs::exists(dir / "ck")) << "a rejected command must not start checkpointing";
}

TEST_F(ToolFixture, RejectsSurplusPositionalArguments) {
    // One argument past each usage line: an error line and exit 1, before
    // any output or checkpoint is written.
    const std::string ck = " --checkpoint-dir " + (dir / "ck").string();
    for (const std::string& args :
         {"verify " + pp + " 8 10 junk", "info " + pp + " extra", "dot " + pp + " extra",
          "simulate " + pp + " 64 3 extra", "longrun " + pp + " 64 1000 7 extra" + ck,
          "sweep " + pp + " 256 300 2 7 extra" + ck}) {
        const RunResult r = run_tool(args);
        EXPECT_EQ(r.exit_code, 1) << args << "\n" << r.output;
        EXPECT_EQ(r.output.rfind("error: ", 0), 0u) << args << "\n" << r.output;
        EXPECT_NE(r.output.find("takes at most"), std::string::npos) << args << "\n"
                                                                      << r.output;
    }
    EXPECT_FALSE(fs::exists(dir / "ck")) << "a rejected command must not start checkpointing";
}

TEST_F(ToolFixture, RejectsSweepWhoseTrialCountOverflows) {
    // 4 populations × 2⁶² runs wraps a 64-bit trial count to 0; the sweep
    // must refuse it instead of reading trial results it never ran.
    const RunResult r = run_tool("sweep " + pp + " 4 2,3,4,5 4611686018427387904");
    EXPECT_EQ(r.exit_code, 1) << r.output;
    EXPECT_EQ(r.term_signal, 0) << r.output;
    EXPECT_NE(r.output.find("error: "), std::string::npos) << r.output;
}

TEST_F(ToolFixture, HelpAndDemoSucceed) {
    EXPECT_EQ(run_tool("help").exit_code, 0);
    EXPECT_EQ(run_tool("demo").exit_code, 0);
}

// --- analyze diagnostics ---------------------------------------------------

TEST_F(ToolFixture, AnalyzeReportsDiagnosticsOnTheirSourceLines) {
    // Comments and blank lines shift every line; each diagnostic must name
    // the line that first declares its subject (1 when it has none).
    const std::string file = (dir / "diag.pp").string();
    std::ofstream(file) << "# diagnostics fixture: comments and blank lines shift every line\n"
                           "\n"
                           "state a 0\n"                          // 3
                           "state b 0    # produced by a rule\n"  // 4
                           "state c 1\n"                          // 5
                           "\n"
                           "state z 1    # nothing produces z\n"  // 7
                           "input x -> a\n"
                           "\n"
                           "# rules\n"
                           "trans a a -> b b\n"                   // 11
                           "trans+ a a -> a c\n"                  // 12
                           "trans a b -> c c\n"                   // 13
                           "trans z a -> z z    # dead: z is unreachable\n"
                           "trans c b -> b c    # silent\n"       // 15
                           "trans b b -> c c\n"
                           "\n"
                           "trans a a -> b b    # identical to the first rule\n"
                           "trans b c -> c b    # identical to the silent rule\n"
                           "trans a z -> z z    # identical to the dead rule\n";
    const RunResult r = run_tool("analyze " + file);
    ASSERT_EQ(r.exit_code, 0) << r.output;
    EXPECT_EQ(r.output,
              file + ":18: warning [duplicate-rule]: duplicate rule for pair {a, a} "
                     "(identical to line 11)\n" +
                  file + ":19: warning [duplicate-rule]: duplicate rule for pair {b, c} "
                         "(identical to line 15)\n" +
                  file + ":20: warning [duplicate-rule]: duplicate rule for pair {a, z} "
                         "(identical to line 14)\n" +
                  file + ":7: note [unreachable-state]: state 'z' is unreachable from every "
                         "initial configuration\n" +
                  file + ":14: note [dead-transition]: transition 3 can never fire (pre-state "
                         "'z' is unreachable)\n" +
                  file + ":1: warning [trap-empty]: the output trap W_0 is empty: trap-based "
                         "stable-consensus detection can never certify output 0\n" +
                  file + ":12: note [nondeterministic-pair]: pair {a, a} has 2 rules "
                         "(nondeterministic)\n"
                         "analyze: 1 unreachable state, 1 dead transition, consensus 0 "
                         "possible, consensus 1 possible\n"
                         "certificates: 2 emitted, checker accepted all\n");
}

// --- crash/resume end to end -----------------------------------------------

TEST_F(ToolFixture, LongrunSurvivesSigkillAndResumesToReferenceDigest) {
    // The leader protocol's IC(m) holds m + 1 agents: the resume check must
    // compare the snapshot with that, not with m.
    const std::string leader = (dir / "leader.pp").string();
    const RunResult family = run_tool("family leader 3");
    ASSERT_EQ(family.exit_code, 0) << family.output;
    std::ofstream(leader) << family.output;
    for (const std::string& file : {pp, leader}) {
        const std::string base = "longrun " + file + " 256 2000000 7 ";
        const RunResult reference = run_tool(base);
        ASSERT_EQ(reference.exit_code, 0) << reference.output;
        const std::size_t line = reference.output.find("longrun:");
        ASSERT_NE(line, std::string::npos);
        const std::string reference_line = reference.output.substr(line);

        const std::string flags =
            "--checkpoint-dir " + file + ".ck --checkpoint-every 100000 ";
        // Depending on whether the shell execs the command directly, the
        // kill surfaces as a SIGKILL status or as the shell's 128+9 exit code.
        const RunResult killed = run_tool(base + flags + "--die-after 800000");
        EXPECT_TRUE(killed.term_signal == SIGKILL || killed.exit_code == 128 + SIGKILL)
            << "signal=" << killed.term_signal << " exit=" << killed.exit_code << "\n"
            << killed.output;

        const RunResult resumed = run_tool(base + flags + "--resume");
        ASSERT_EQ(resumed.exit_code, 0) << resumed.output;
        EXPECT_NE(resumed.output.find("resumed from"), std::string::npos) << resumed.output;
        EXPECT_NE(resumed.output.find(reference_line), std::string::npos)
            << "resumed digest line differs:\nwant: " << reference_line
            << "\ngot:  " << resumed.output;
    }
}

TEST_F(ToolFixture, LongrunRefusesToResumeAnotherPopulationsCheckpoint) {
    // The checkpoint fingerprint pins the protocol, not the population: a
    // resume with another population must fail loudly, before it writes a
    // snapshot, instead of carrying on the other run's trajectory.
    const std::string ck = (dir / "ck").string();
    const std::string flags = " 7 --checkpoint-dir " + ck + " --checkpoint-every 100000";
    const RunResult first = run_tool("longrun " + pp + " 512 400000" + flags);
    ASSERT_EQ(first.exit_code, 0) << first.output;
    const auto snapshots = [&] {
        std::vector<std::string> names;
        for (const auto& entry : fs::directory_iterator(ck)) names.push_back(entry.path().string());
        std::sort(names.begin(), names.end());
        return names;
    };
    const std::vector<std::string> before = snapshots();
    ASSERT_FALSE(before.empty());

    const RunResult resumed = run_tool("longrun " + pp + " 64 800000" + flags + " --resume");
    EXPECT_EQ(resumed.exit_code, 1) << resumed.output;
    EXPECT_NE(resumed.output.find("error: "), std::string::npos) << resumed.output;
    EXPECT_NE(resumed.output.find("512 agents, not 64"), std::string::npos) << resumed.output;
    EXPECT_EQ(resumed.output.find("resumed from"), std::string::npos) << resumed.output;
    EXPECT_EQ(snapshots(), before);
}

TEST_F(ToolFixture, LongrunSnapshotsEveryNInteractionsAcrossRestarts) {
    // At 512 agents the double_exp(3) trajectories go silent and restart
    // from IC every ~2·10⁵ interactions, well inside --checkpoint-every:
    // the cadence must count the whole run, not each trajectory, or no
    // snapshot (and no --die-after crash) ever happens.
    const std::string base = "longrun " + pp + " 512 4000000 7 ";
    const RunResult reference = run_tool(base);
    ASSERT_EQ(reference.exit_code, 0) << reference.output;
    const std::string reference_line = reference.output.substr(reference.output.find("longrun:"));

    const std::string flags =
        "--checkpoint-dir " + (dir / "ck").string() + " --checkpoint-every 500000 ";
    const RunResult killed = run_tool(base + flags + "--die-after 2000000");
    EXPECT_TRUE(killed.term_signal == SIGKILL || killed.exit_code == 128 + SIGKILL)
        << "signal=" << killed.term_signal << " exit=" << killed.exit_code << "\n"
        << killed.output;

    const RunResult resumed = run_tool(base + flags + "--resume");
    ASSERT_EQ(resumed.exit_code, 0) << resumed.output;
    EXPECT_NE(resumed.output.find("resumed from"), std::string::npos) << resumed.output;
    EXPECT_NE(resumed.output.find(reference_line), std::string::npos) << resumed.output;
}

/// Every file under `root`, recursively, with its size — sorted.
std::vector<std::pair<std::string, std::uintmax_t>> listing(const fs::path& root) {
    std::vector<std::pair<std::string, std::uintmax_t>> files;
    for (const auto& entry : fs::recursive_directory_iterator(root))
        if (entry.is_regular_file()) files.emplace_back(entry.path().string(), entry.file_size());
    std::sort(files.begin(), files.end());
    return files;
}

TEST_F(ToolFixture, LongrunRefusesToResumeAnotherSeedsCheckpoint) {
    // Snapshots carry a digest of their run's seed: resuming a seed-7 run
    // with seed 8 would carry on seed 7's stream under seed 8's name.
    const std::string ck = (dir / "ck").string();
    const std::string flags = " --checkpoint-dir " + ck + " --checkpoint-every 200000";
    const RunResult first = run_tool("longrun " + pp + " 512 1600000 7" + flags);
    ASSERT_EQ(first.exit_code, 0) << first.output;
    const auto before = listing(ck);
    ASSERT_FALSE(before.empty());

    const RunResult resumed = run_tool("longrun " + pp + " 512 1600000 8" + flags + " --resume");
    EXPECT_EQ(resumed.exit_code, 1) << resumed.output;
    EXPECT_NE(resumed.output.find("error: "), std::string::npos) << resumed.output;
    EXPECT_NE(resumed.output.find(ck), std::string::npos) << resumed.output;
    EXPECT_NE(resumed.output.find("another seed, not 8"), std::string::npos) << resumed.output;
    EXPECT_EQ(resumed.output.find("resumed from"), std::string::npos) << resumed.output;
    EXPECT_EQ(listing(ck), before);

    // Its own seed still resumes.
    const RunResult same = run_tool("longrun " + pp + " 512 1600000 7" + flags + " --resume");
    EXPECT_EQ(same.exit_code, 0) << same.output;
    EXPECT_NE(same.output.find("resumed from"), std::string::npos) << same.output;
}

TEST_F(ToolFixture, LongrunStopsOnSigtermWithoutACheckpointDirectory) {
    // At 2^40 agents double_exp(10) does not go silent for hours, so only
    // the hook's stop check can end the run early.  Without a directory
    // --checkpoint-every paces that check: 10^5 interactions, nearly all of
    // them fired, take milliseconds optimised and ~1 s under Debug+TSan.
    // SIGTERM at 2 s, SIGKILL to the tool at 30 s if it is still running
    // (one timeout, so the KILL reaches the tool itself).
    const std::string d10 = (dir / "d10.pp").string();
    const RunResult family = run_tool("family double_exp 10");
    ASSERT_EQ(family.exit_code, 0) << family.output;
    std::ofstream(d10) << family.output;
    const RunResult r =
        run_tool("longrun " + d10 + " 1099511627776 100000000000000 3 --checkpoint-every 100000",
                 "timeout -k 28 --preserve-status -s TERM 2 ");
    EXPECT_EQ(r.exit_code, 0) << "signal=" << r.term_signal << "\n" << r.output;
    EXPECT_NE(r.output.find("interrupted — no checkpoint directory\nlongrun: "),
              std::string::npos)
        << r.output;

    // The stop checks consume no randomness: the cadence leaves a finished
    // run's line as it is.
    const std::string base = "longrun " + pp + " 512 300000 7";
    const RunResult plain = run_tool(base);
    const RunResult paced = run_tool(base + " --checkpoint-every 1000");
    ASSERT_EQ(plain.exit_code, 0) << plain.output;
    ASSERT_EQ(paced.exit_code, 0) << paced.output;
    EXPECT_EQ(paced.output, plain.output);
}

TEST_F(ToolFixture, LongrunFailsWhenASnapshotCannotBeWritten) {
    // The directory lies under a regular file: every write fails, and the
    // first failure ends the run instead of a warning per snapshot.
    std::ofstream(dir / "notadir") << "a file";
    const RunResult r = run_tool("longrun " + pp + " 512 300000 7 --checkpoint-dir " +
                                 (dir / "notadir" / "sub").string() +
                                 " --checkpoint-every 100000");
    EXPECT_EQ(r.exit_code, 1) << r.output;
    EXPECT_EQ(r.output.rfind("error: checkpoint write failed: ", 0), 0u) << r.output;
    EXPECT_EQ(r.output.find("longrun:"), std::string::npos) << r.output;
}

TEST_F(ToolFixture, SweepFailsWhenASnapshotCannotBeWritten) {
    std::ofstream(dir / "notadir") << "a file";
    const RunResult r = run_tool("sweep " + pp + " 256 512,1024 4 7 --checkpoint-dir " +
                                 (dir / "notadir" / "sub").string() + " --checkpoint-every 1000");
    EXPECT_EQ(r.exit_code, 1) << r.output;
    EXPECT_EQ(r.output.rfind("error: checkpoint write failed: ", 0), 0u) << r.output;
    EXPECT_EQ(r.output.find("population"), std::string::npos)
        << "no row may be printed:\n" << r.output;
}

TEST_F(ToolFixture, SweepRefusesCheckpointsOfAnotherSeed) {
    const std::string ck = (dir / "sw").string();
    const std::string flags = " --checkpoint-dir " + ck + " --checkpoint-every 100000";
    const std::string sweep = "sweep " + pp + " 256 64,128 4 ";
    const RunResult seven = run_tool(sweep + "7" + flags);
    ASSERT_EQ(seven.exit_code, 0) << seven.output;
    const auto before = listing(ck);
    ASSERT_FALSE(before.empty());

    const RunResult eight = run_tool(sweep + "8" + flags);
    EXPECT_EQ(eight.exit_code, 1) << eight.output;
    EXPECT_NE(eight.output.find("error: "), std::string::npos) << eight.output;
    EXPECT_NE(eight.output.find(ck), std::string::npos) << eight.output;
    EXPECT_EQ(eight.output.find("population"), std::string::npos)
        << "no row may be printed:\n" << eight.output;
    EXPECT_EQ(listing(ck), before);

    // Re-running seed 7 resumes every trial and prints the same rows.
    const RunResult again = run_tool(sweep + "7" + flags);
    EXPECT_EQ(again.exit_code, 0) << again.output;
    EXPECT_EQ(again.output, seven.output);
}

}  // namespace
