// dhpfc CLI surface tests: the options table is the single source of truth
// for parsing AND --help, so every accepted flag must appear in the usage
// text, parse successfully, and reject bad values with useful errors.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cli/cli.hpp"

namespace dhpf::cli {
namespace {

TEST(Cli, EveryAcceptedFlagAppearsInHelp) {
  const std::string help = usage_text();
  for (const OptionSpec& s : option_table()) {
    EXPECT_NE(help.find(s.display), std::string::npos)
        << s.name << " missing from --help (display form: " << s.display << ")";
    EXPECT_NE(help.find(s.name), std::string::npos);
    EXPECT_FALSE(s.help.empty()) << s.name << " has no help text";
    EXPECT_NE(help.find(s.help.substr(0, 24)), std::string::npos)
        << s.name << "'s help text not rendered";
  }
}

TEST(Cli, EveryFlagParsesWithAnExampleValue) {
  for (const OptionSpec& s : option_table()) {
    // The display form doubles as a parseable example: for valued options it
    // is "--name=v1|v2..." — take the first alternative.
    std::string arg = s.display;
    const auto bar = arg.find('|');
    if (bar != std::string::npos) arg = arg.substr(0, bar);
    if (s.takes_value && arg.find('=') == arg.size() - 1) arg += "x";  // FILE-style
    if (arg == "--report-json=FILE") arg = "--report-json=out.json";
    if (arg == "--trace-out=FILE") arg = "--trace-out=trace.json";
    if (arg == "--tune-measure=K") arg = "--tune-measure=3";
    if (arg == "--fuzz=N") arg = "--fuzz=10";
    if (arg == "--fuzz-seed=S") arg = "--fuzz-seed=7";
    if (arg == "--fuzz-out=DIR") arg = "--fuzz-out=out";
    if (arg == "--fuzz-corpus=DIR") arg = "--fuzz-corpus=corpus";
    if (arg == "--svc-workers=N") arg = "--svc-workers=4";
    if (arg == "--svc-cache=N") arg = "--svc-cache=256";
    ParseResult r = parse_args({arg, "prog.hpf"});
    EXPECT_TRUE(r.ok()) << arg << ": " << r.error;
  }
}

TEST(Cli, DefaultsMatchCompilerDefaults) {
  ParseResult r = parse_args({"prog.hpf"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.opts.input, "prog.hpf");
  EXPECT_TRUE(r.opts.sopt.localize);
  EXPECT_TRUE(r.opts.sopt.comm_sensitive);
  EXPECT_TRUE(r.opts.sopt.interprocedural);
  EXPECT_TRUE(r.opts.copt.data_availability);
  EXPECT_FALSE(r.opts.run);
  EXPECT_FALSE(r.opts.verify);
  EXPECT_FALSE(r.opts.report);
  EXPECT_TRUE(r.opts.report_json.empty());
}

TEST(Cli, FlagsSetTheirOptions) {
  ParseResult r = parse_args({"--no-localize", "--no-availability", "--priv=owner",
                              "--backend=mp", "--verify", "--report-json=-", "x.hpf"});
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_FALSE(r.opts.sopt.localize);
  EXPECT_FALSE(r.opts.copt.data_availability);
  EXPECT_EQ(r.opts.sopt.priv_mode, cp::PrivMode::OwnerComputes);
  EXPECT_EQ(r.opts.xopt.backend, exec::Backend::Mp);
  EXPECT_TRUE(r.opts.verify);
  EXPECT_EQ(r.opts.report_json, "-");
}

TEST(Cli, ServiceFlags) {
  // --serve needs no input file (the daemon has no positional argument).
  ParseResult serve = parse_args({"--serve=/tmp/d.sock", "--svc-workers=4",
                                  "--svc-cache=64", "--quiet"});
  ASSERT_TRUE(serve.ok()) << serve.error;
  EXPECT_EQ(serve.opts.serve_socket, "/tmp/d.sock");
  EXPECT_EQ(serve.opts.svc_workers, 4);
  EXPECT_EQ(serve.opts.svc_cache, 64);

  // --server is a per-request pass-through and still wants an input.
  ParseResult client = parse_args({"--server=/tmp/d.sock", "x.hpf"});
  ASSERT_TRUE(client.ok()) << client.error;
  EXPECT_EQ(client.opts.server_socket, "/tmp/d.sock");
  EXPECT_EQ(client.opts.input, "x.hpf");
  EXPECT_FALSE(parse_args({"--server=/tmp/d.sock"}).ok());

  EXPECT_FALSE(parse_args({"--serve=", "x.hpf"}).ok());
  EXPECT_FALSE(parse_args({"--svc-workers=-1", "x.hpf"}).ok());
  EXPECT_FALSE(parse_args({"--svc-cache=nope", "x.hpf"}).ok());
}

TEST(Cli, ModelAndTuneFlags) {
  ParseResult r = parse_args({"--model-report", "--calibrate=cal.json",
                              "--calibration=prev.json", "--tune", "--tune-backend=mp",
                              "--tune-measure=5", "x.hpf"});
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_TRUE(r.opts.model_report);
  EXPECT_EQ(r.opts.calibrate_out, "cal.json");
  EXPECT_EQ(r.opts.calibration_in, "prev.json");
  EXPECT_TRUE(r.opts.tune);
  EXPECT_EQ(r.opts.xopt.backend, exec::Backend::Mp);
  EXPECT_EQ(r.opts.tune_measure, 5);

  // Defaults when none of the new flags are given.
  ParseResult d = parse_args({"x.hpf"});
  ASSERT_TRUE(d.ok());
  EXPECT_FALSE(d.opts.model_report);
  EXPECT_FALSE(d.opts.tune);
  EXPECT_EQ(d.opts.tune_measure, 3);
  EXPECT_TRUE(d.opts.calibrate_out.empty());
  EXPECT_TRUE(d.opts.calibration_in.empty());
}

TEST(Cli, TraceAndProfileFlags) {
  ParseResult r = parse_args({"--trace-out=t.json", "--profile", "x.hpf"});
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.opts.trace_out, "t.json");
  EXPECT_TRUE(r.opts.profile);

  ParseResult d = parse_args({"x.hpf"});
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(d.opts.trace_out.empty());
  EXPECT_FALSE(d.opts.profile);

  // --trace-out requires a value; --profile takes none. The unknown-flag
  // hard-fail stays intact alongside the new options.
  EXPECT_NE(parse_args({"--trace-out", "x.hpf"}).error.find("requires a value"),
            std::string::npos);
  EXPECT_NE(parse_args({"--profile=yes", "x.hpf"}).error.find("takes no value"),
            std::string::npos);
  EXPECT_NE(parse_args({"--trace", "x.hpf"}).error.find("--trace"), std::string::npos);
}

TEST(Cli, TuneMeasureRejectsBadValues) {
  EXPECT_NE(parse_args({"--tune-measure=lots", "x.hpf"}).error.find("lots"),
            std::string::npos);
  EXPECT_NE(parse_args({"--tune-measure=-1", "x.hpf"}).error.find("-1"),
            std::string::npos);
  EXPECT_NE(parse_args({"--tune-backend=cray", "x.hpf"}).error.find("cray"),
            std::string::npos);
  EXPECT_NE(parse_args({"--tune-measure=3junk", "x.hpf"}).error.find("3junk"),
            std::string::npos);
  EXPECT_FALSE(parse_args({"--tune-measure= 3", "x.hpf"}).ok());
  EXPECT_FALSE(parse_args({"--tune-measure=+3", "x.hpf"}).ok());
  EXPECT_FALSE(parse_args({"--tune-measure=99999999999", "x.hpf"}).ok());
  EXPECT_TRUE(parse_args({"--tune-measure=0", "x.hpf"}).ok());
}

TEST(Cli, ErrorsNameTheOffendingArgument) {
  EXPECT_NE(parse_args({"--frobnicate", "x.hpf"}).error.find("--frobnicate"),
            std::string::npos);
  EXPECT_NE(parse_args({"--priv=bogus", "x.hpf"}).error.find("bogus"), std::string::npos);
  EXPECT_NE(parse_args({"--backend=cray", "x.hpf"}).error.find("cray"), std::string::npos);
  EXPECT_NE(parse_args({"--priv", "x.hpf"}).error.find("requires a value"),
            std::string::npos);
  EXPECT_NE(parse_args({"--run=yes", "x.hpf"}).error.find("takes no value"),
            std::string::npos);
  EXPECT_NE(parse_args({"a.hpf", "b.hpf"}).error.find("b.hpf"), std::string::npos);
  EXPECT_NE(parse_args({}).error.find("missing input"), std::string::npos);
  // Numeric values are read whole: trailing junk, exponents and a sign on
  // the unsigned seed are errors, not a prefix silently taken.
  for (const char* arg : {"--fuzz=10x", "--svc-workers=4x", "--svc-cache=1e3",
                          "--fuzz-seed=-1", "--fuzz-seed=18446744073709551616"}) {
    const std::string a = arg;
    const std::string error = parse_args({a, "x.hpf"}).error;
    EXPECT_NE(error.find("bad value"), std::string::npos) << a;
    EXPECT_NE(error.find(a.substr(a.find('=') + 1)), std::string::npos) << a;
  }
  ParseResult seed = parse_args({"--fuzz-seed=18446744073709551615", "x.hpf"});
  ASSERT_TRUE(seed.ok()) << seed.error;
  EXPECT_EQ(seed.opts.fuzz_seed, 18446744073709551615ULL);
}

TEST(Cli, LintFlags) {
  ParseResult r = parse_args({"--lint", "x.hpf"});
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_TRUE(r.opts.lint);
  EXPECT_FALSE(r.opts.lint_selftest);

  ParseResult st = parse_args({"--lint-selftest", "x.hpf"});
  ASSERT_TRUE(st.ok()) << st.error;
  EXPECT_TRUE(st.opts.lint_selftest);
  EXPECT_FALSE(st.opts.lint);

  // Both are plain flags; defaults are off.
  EXPECT_FALSE(parse_args({"x.hpf"}).opts.lint);
  EXPECT_NE(parse_args({"--lint=yes", "x.hpf"}).error.find("takes no value"),
            std::string::npos);

  // The --lint* options ride in the help text next to each other, and the
  // exit-code trailer documents the lint-specific exit 2.
  const std::string help = usage_text();
  const auto lint_pos = help.find("--lint ");
  const auto selftest_pos = help.find("--lint-selftest");
  ASSERT_NE(lint_pos, std::string::npos);
  ASSERT_NE(selftest_pos, std::string::npos);
  EXPECT_LT(lint_pos, selftest_pos);
  EXPECT_NE(help.find("error-severity findings exist"), std::string::npos);
}

TEST(Cli, HelpNeedsNoInputFile) {
  ParseResult r = parse_args({"--help"});
  EXPECT_TRUE(r.ok()) << r.error;
  EXPECT_TRUE(r.opts.help);
  const std::string help = usage_text();
  EXPECT_NE(help.find("usage: dhpfc"), std::string::npos);
  EXPECT_NE(help.find("exit codes"), std::string::npos);
}

}  // namespace
}  // namespace dhpf::cli
