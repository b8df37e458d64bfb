#include "runner/backend.h"

#include <stdexcept>
#include <vector>

#include <unistd.h>

#include "runner/subproc.h"

namespace rubik {

std::vector<std::string>
ExecutionBackend::cellsArgv(const std::string &spec_path,
                            std::size_t begin, std::size_t end,
                            int batch, int num_batches) const
{
    if (inProcess()) {
        throw std::logic_error(
            "local backend runs batches in-process; nothing to dispatch");
    }
    const std::string cells =
        std::to_string(begin) + "-" + std::to_string(end);
    std::vector<std::string> words = {config_.selfExe, "sweep", "--spec",
                                      spec_path};
    if (config_.jobs > 0) {
        words.push_back("--jobs");
        words.push_back(std::to_string(config_.jobs));
    }
    if (config_.traceStats)
        words.push_back("--trace-stats");
    if (template_.empty()) {
        words.push_back("--cells");
        words.push_back(cells);
        return words;
    }
    std::string argv;
    for (const std::string &word : words)
        argv += shellQuote(word) + " ";
    argv += "--cells " + cells;
    const std::string index = std::to_string(batch);
    const std::string count = std::to_string(num_batches);
    const std::map<std::string, std::string> fields = {
        {"argv", argv},
        {"cells", cells},
        {"shard", index + "/" + count},
        {"index", index},
        {"nshards", count},
        {"jobs", std::to_string(config_.jobs)},
        {"spec", spec_path},
    };
    return shellArgv(instantiateCommandTemplate(template_, fields));
}

ExecutionBackend
makeBackend(const std::string &desc, const BackendConfig &config)
{
    if (config.numShards < 1)
        throw std::runtime_error("backend: --shards must be >= 1");
    ExecutionBackend backend;
    backend.config_ = config;
    if (desc == "local" || desc.empty())
        return backend;
    constexpr const char kCommandPrefix[] = "command:";
    backend.dispatches_ = true;
    if (desc == "subprocess") {
        backend.name_ = "subprocess";
    } else if (desc.rfind(kCommandPrefix, 0) == 0) {
        backend.name_ = "command";
        backend.template_ = desc.substr(sizeof(kCommandPrefix) - 1);
        if (backend.template_.empty()) {
            throw std::runtime_error(
                "command backend: empty command template");
        }
        if (backend.template_.find("{argv}") == std::string::npos &&
            backend.template_.find("{cells}") == std::string::npos) {
            throw std::runtime_error(
                "command backend: template must reference {argv} or "
                "{cells} so each batch child runs its own cells");
        }
    } else {
        throw std::runtime_error(
            "unknown backend '" + desc +
            "' (want local, subprocess, or command:<template>)");
    }
    if (backend.config_.selfExe.empty())
        backend.config_.selfExe = selfExePath(nullptr);
    return backend;
}

std::string
shellQuote(const std::string &arg)
{
    std::string quoted = "'";
    for (const char c : arg) {
        if (c == '\'')
            quoted += "'\\''";
        else
            quoted.push_back(c);
    }
    quoted.push_back('\'');
    return quoted;
}

std::string
commandLine(const std::vector<std::string> &argv)
{
    if (argv.size() == 3 && argv[0] == "/bin/sh" && argv[1] == "-c")
        return argv[2];
    std::string line;
    for (const std::string &word : argv) {
        if (!line.empty())
            line += ' ';
        line += shellQuote(word);
    }
    return line;
}

std::string
instantiateCommandTemplate(const std::string &tmpl,
                           const std::map<std::string, std::string>
                               &fields)
{
    std::string out;
    out.reserve(tmpl.size());
    std::size_t pos = 0;
    while (pos < tmpl.size()) {
        const std::size_t open = tmpl.find('{', pos);
        if (open == std::string::npos) {
            out.append(tmpl, pos, std::string::npos);
            break;
        }
        out.append(tmpl, pos, open - pos);
        const std::size_t close = tmpl.find('}', open);
        if (close == std::string::npos) {
            out.append(tmpl, open, std::string::npos);
            break;
        }
        const std::string key = tmpl.substr(open + 1, close - open - 1);
        const auto it = fields.find(key);
        if (it != fields.end()) {
            out += it->second;
        } else {
            // Unknown placeholder: keep the braces verbatim, so shell
            // constructs like ${VAR} pass through untouched.
            out.append(tmpl, open, close - open + 1);
        }
        pos = close + 1;
    }
    return out;
}

std::string
selfExePath(const char *argv0)
{
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n > 0) {
        buf[n] = '\0';
        return buf;
    }
    return argv0 ? argv0 : "";
}

} // namespace rubik
