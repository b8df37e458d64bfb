#include "runner/subproc.h"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

namespace rubik {

namespace {

/// Open `path` for the child's fd `target`, truncating; best effort
/// (a failed redirect leaves the inherited fd in place).
void
redirectTo(const std::string &path, int target)
{
    const int fd =
        ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
        ::dup2(fd, target);
        ::close(fd);
    }
}

} // anonymous namespace

pid_t
spawnCommand(const std::vector<std::string> &argv,
             const std::string &stdout_path,
             const std::string &stderr_path,
             const std::string &unset_env)
{
    if (argv.empty())
        return -1;
    // Build everything the child needs here: between fork and exec,
    // the child of a multithreaded parent may only make
    // async-signal-safe calls, so it must not allocate.
    std::vector<char *> args;
    args.reserve(argv.size() + 1);
    for (const std::string &arg : argv)
        args.push_back(const_cast<char *>(arg.c_str()));
    args.push_back(nullptr);
    char **envp = environ;
    std::vector<char *> env;
    if (!unset_env.empty()) {
        const std::string prefix = unset_env + "=";
        for (char **e = environ; *e; ++e) {
            if (std::strncmp(*e, prefix.c_str(), prefix.size()) != 0)
                env.push_back(*e);
        }
        env.push_back(nullptr);
        envp = env.data();
    }

    const pid_t parent = ::getpid();
    const pid_t pid = ::fork();
    if (pid < 0)
        return -1;
    if (pid == 0) {
        // Child: own process group, so a straggler kill reaps any
        // grandchildren the command leaves behind too.
        ::setpgid(0, 0);
        // Die with the spawning thread, so a coordinator that is
        // SIGKILLed leaves no batch child running. A parent that died
        // before this call never sends the signal: exit at once.
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (::getppid() != parent)
            ::_exit(127);
        redirectTo(stdout_path, STDOUT_FILENO);
        redirectTo(stderr_path, STDERR_FILENO);
        ::execvpe(args[0], args.data(), envp);
        ::_exit(127);
    }
    // Mirror the child's setpgid here: whichever side runs first wins,
    // and a kill issued before the child reaches exec still hits the
    // right group.
    ::setpgid(pid, pid);
    return pid;
}

std::vector<std::string>
shellArgv(const std::string &command)
{
    return {"/bin/sh", "-c", command};
}

int
waitCommand(pid_t pid)
{
    if (pid < 0)
        return -1;
    int status = 0;
    pid_t got;
    do {
        got = ::waitpid(pid, &status, 0);
    } while (got < 0 && errno == EINTR);
    return got == pid ? status : -1;
}

ExitWatch::ExitWatch(pid_t pid, std::mutex &mutex,
                     std::condition_variable &cv)
{
    if (pid < 0) {
        exited_ = true;
        return;
    }
    helper_ = std::thread([this, pid, &mutex, &cv] {
        // WNOWAIT leaves the child a zombie, so its pid cannot be
        // recycled before the reap below, which runs under the mutex.
        siginfo_t info{};
        int rc = 0;
        do {
            rc = ::waitid(P_PID, static_cast<id_t>(pid), &info,
                          WEXITED | WNOWAIT);
        } while (rc < 0 && errno == EINTR);
        std::lock_guard<std::mutex> lock(mutex);
        status_ = waitCommand(pid);
        exited_ = true;
        cv.notify_all();
    });
}

ExitWatch::~ExitWatch()
{
    if (helper_.joinable())
        helper_.join();
}

void
killCommandGroup(pid_t pid)
{
    if (pid <= 0)
        return;
    ::kill(-pid, SIGKILL);
    ::kill(pid, SIGKILL);
}

std::string
describeWaitStatus(int status)
{
    if (status == -1)
        return "could not be spawned";
    if (WIFEXITED(status)) {
        return "exited with status " +
               std::to_string(WEXITSTATUS(status));
    }
    if (WIFSIGNALED(status))
        return "killed by signal " + std::to_string(WTERMSIG(status));
    return "returned unknown wait status";
}

bool
commandSucceeded(int status)
{
    return status != -1 && WIFEXITED(status) &&
           WEXITSTATUS(status) == 0;
}

} // namespace rubik
