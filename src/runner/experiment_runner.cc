#include "runner/experiment_runner.h"

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <exception>

#include "runner/options_parser.h"

namespace rubik {

int
ExperimentRunner::defaultWorkerCount()
{
    const char *env = std::getenv("RUBIK_JOBS");
    if (env && *env) {
        // Strict like --jobs: atoi read "4x" as 4 and "abc" as the
        // hardware default.
        const auto n = parseCount(env, 0, INT_MAX);
        if (!n) {
            std::fprintf(stderr,
                         "RUBIK_JOBS wants an integer in [0, %d], got "
                         "'%s'\n",
                         INT_MAX, env);
            std::exit(1);
        }
        if (*n > 0)
            return static_cast<int>(*n);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

ExperimentRunner::ExperimentRunner(int num_workers)
{
    if (num_workers <= 0)
        num_workers = defaultWorkerCount();
    workers_.reserve(static_cast<std::size_t>(num_workers));
    for (int i = 0; i < num_workers; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ExperimentRunner::~ExperimentRunner()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    wake_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
ExperimentRunner::enqueue(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(std::move(task));
    }
    wake_.notify_one();
}

void
ExperimentRunner::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock,
                       [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stopping_ and drained.
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task(); // packaged_task captures any exception in its future.
    }
}

void
ExperimentRunner::runBatch(std::vector<std::function<void()>> jobs)
{
    std::vector<std::future<void>> futures;
    futures.reserve(jobs.size());
    for (auto &job : jobs)
        futures.push_back(submit(std::move(job)));
    for (auto &f : futures)
        f.wait();
    // Rethrow in index order so failures match a serial loop.
    for (auto &f : futures)
        f.get();
}

void
ExperimentRunner::parallelFor(std::size_t n,
                              const std::function<void(std::size_t)> &body)
{
    std::vector<std::function<void()>> jobs;
    jobs.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        jobs.push_back([&body, i] { body(i); });
    runBatch(std::move(jobs));
}

} // namespace rubik
