#include "common.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "runner/options_parser.h"

namespace rubik::bench {

int
Options::numRequests(int bench_default) const
{
    int n = requests > 0 ? requests : bench_default;
    if (fast)
        n = std::max(200, n / 4);
    return n;
}

Options
parseOptions(int argc, char **argv)
{
    Options opts;
    rubik::CommonRunOptions run;
    rubik::OptionsParser parser(argc, argv);
    parser.flag("--csv", [&opts] { opts.csv = true; });
    parser.flag("--fast", [&opts] { opts.fast = true; });
    rubik::addRunFlags(parser, &run);
    rubik::addSimdFlag(parser, &run);
    parser.flag("--help", [argv] {
        std::printf("usage: %s [--csv] [--fast] [--requests N] "
                    "[--seed S] [--jobs N] "
                    "[--simd auto|scalar|avx2|neon]\n",
                    argv[0]);
        std::exit(0);
    });
    parser.run();

    opts.seed = run.seed;
    opts.requests = run.requests;
    opts.jobs = run.jobs;
    opts.sim = run.sim;
    // Only a given --simd overrides RUBIK_SIMD; the Auto default
    // would otherwise clobber the environment selection CI pins.
    if (run.simdGiven)
        rubik::applySimdSelection(run);
    return opts;
}

TablePrinter::TablePrinter(std::vector<std::string> headers, bool csv)
    : headers_(std::move(headers)), csv_(csv)
{
}

void
TablePrinter::addRow(std::vector<std::string> cells)
{
    rows_.push_back(std::move(cells));
}

void
TablePrinter::print() const
{
    if (csv_) {
        auto print_row = [](const std::vector<std::string> &row) {
            for (std::size_t i = 0; i < row.size(); ++i)
                std::printf("%s%s", i ? "," : "", row[i].c_str());
            std::printf("\n");
        };
        print_row(headers_);
        for (const auto &row : rows_)
            print_row(row);
        return;
    }

    std::vector<std::size_t> widths(headers_.size(), 0);
    for (std::size_t i = 0; i < headers_.size(); ++i)
        widths[i] = headers_[i].size();
    for (const auto &row : rows_) {
        for (std::size_t i = 0; i < row.size() && i < widths.size(); ++i)
            widths[i] = std::max(widths[i], row[i].size());
    }

    auto print_row = [&](const std::vector<std::string> &row) {
        for (std::size_t i = 0; i < row.size(); ++i) {
            std::printf("%s%-*s", i ? "  " : "",
                        static_cast<int>(widths[i]), row[i].c_str());
        }
        std::printf("\n");
    };
    print_row(headers_);
    std::size_t total = headers_.empty() ? 0 : 2 * (headers_.size() - 1);
    for (auto w : widths)
        total += w;
    std::printf("%s\n", std::string(total, '-').c_str());
    for (const auto &row : rows_)
        print_row(row);
}

std::string
fmt(const char *format, double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), format, value);
    return buf;
}

void
heading(const Options &opts, const std::string &title)
{
    if (opts.csv)
        std::printf("# %s\n", title.c_str());
    else
        std::printf("\n=== %s ===\n\n", title.c_str());
}

} // namespace rubik::bench
