#include "runner/subproc.h"

#include <cerrno>

#include <fcntl.h>
#include <signal.h>
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
spawnShellCommand(const std::string &command,
                  const std::string &stdout_path,
                  const std::string &stderr_path)
{
    const pid_t pid = ::fork();
    if (pid < 0)
        return -1;
    if (pid == 0) {
        // Child: own process group, so a straggler kill reaps any
        // grandchildren the shell leaves behind too.
        ::setpgid(0, 0);
        redirectTo(stdout_path, STDOUT_FILENO);
        redirectTo(stderr_path, STDERR_FILENO);
        ::execl("/bin/sh", "sh", "-c", command.c_str(),
                static_cast<char *>(nullptr));
        ::_exit(127);
    }
    // Mirror the child's setpgid here: whichever side runs first wins,
    // and a kill issued before the child reaches exec still hits the
    // right group.
    ::setpgid(pid, pid);
    return pid;
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
        return "could not spawn /bin/sh";
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
