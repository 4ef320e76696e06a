#include "probe.hpp"

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <system_error>
#include <utility>
#include <vector>

extern char** environ;

namespace perfbench {
namespace {

constexpr std::size_t kTableEntries = std::size_t{8} << 20;  // 32 MiB of uint32
constexpr int kSeqLen = 256;
constexpr int kRounds = 20;
constexpr int kFillsPerRound = 10;     // 256 x 256 cells each
constexpr int kStepsPerRound = 20000;  // dependent loads

// Rates on the reference host, a 4-vCPU Intel Xeon VM at 2.0 GHz (GCC 12,
// Release build), so a reading there is about 1 when the host is quiet.
constexpr double kRefFillsPerS = 7000.0;
constexpr double kRefStepsPerS = 6.5e6;

volatile std::int64_t g_sink = 0;  // keeps the probe's work observable

std::uint64_t xorshift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

/// Best local score of an affine-gap fill of `a` against `b` rotated by
/// `shift`; `h` and `e` are row buffers of kSeqLen + 1.
int fill(const std::vector<std::uint8_t>& a, const std::vector<std::uint8_t>& b, int shift,
         std::vector<int>& h, std::vector<int>& e) {
  constexpr int kMatch = 2, kMismatch = -4, kOpen = 6, kExtend = 1, kNegInf = -1000;
  std::fill(h.begin(), h.end(), 0);
  std::fill(e.begin(), e.end(), kNegInf);
  int best = 0;
  for (int i = 1; i <= kSeqLen; ++i) {
    int diag = 0;
    int f = kNegInf;
    int left = 0;
    for (int j = 1; j <= kSeqLen; ++j) {
      const int up = h[j];
      e[j] = std::max(e[j] - kExtend, up - kOpen);
      f = std::max(f - kExtend, left - kOpen);
      const bool same = a[i - 1] == b[(j + shift) % kSeqLen];
      const int cell = std::max({0, diag + (same ? kMatch : kMismatch), e[j], f});
      diag = up;
      h[j] = cell;
      left = cell;
      best = std::max(best, cell);
    }
  }
  return best;
}

bool read_all(int fd, void* data, std::size_t n) {
  auto* p = static_cast<char*>(data);
  while (n > 0) {
    const ssize_t got = ::read(fd, p, n);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    p += got;
    n -= static_cast<std::size_t>(got);
  }
  return true;
}

bool write_all(int fd, const void* data, std::size_t n) {
  const auto* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t put = ::write(fd, p, n);
    if (put < 0 && errno == EINTR) continue;
    if (put <= 0) return false;
    p += put;
    n -= static_cast<std::size_t>(put);
  }
  return true;
}

}  // namespace

HostProbe::HostProbe() {
  int request[2];
  int reply[2];
  if (::pipe2(request, O_CLOEXEC) != 0) {
    throw std::system_error(errno, std::generic_category(), "probe pipe");
  }
  if (::pipe2(reply, O_CLOEXEC) != 0) {
    const int err = errno;
    ::close(request[0]);
    ::close(request[1]);
    throw std::system_error(err, std::generic_category(), "probe pipe");
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, request[0], STDIN_FILENO);
  posix_spawn_file_actions_adddup2(&actions, reply[1], STDOUT_FILENO);
  char exe[] = "/proc/self/exe";
  char phase_flag[] = "--phase";
  char phase[] = "probe";
  char* argv[] = {exe, phase_flag, phase, nullptr};
  const int rc = ::posix_spawn(&pid_, exe, &actions, nullptr, argv, environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(request[0]);
  ::close(reply[1]);
  request_fd_ = request[1];
  reply_fd_ = reply[0];
  if (rc != 0) {
    ::close(request_fd_);
    ::close(reply_fd_);
    throw std::system_error(rc, std::generic_category(), "starting the probe process");
  }
}

HostProbe::~HostProbe() {
  ::close(request_fd_);
  ::close(reply_fd_);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
}

double HostProbe::speed() {
  const char request = 1;
  double reading = 0.0;
  if (!write_all(request_fd_, &request, 1) || !read_all(reply_fd_, &reading, sizeof reading)) {
    throw std::runtime_error("the host probe process stopped answering");
  }
  last_ = std::chrono::steady_clock::now();
  return reading;
}

bool HostProbe::due() const {
  return std::chrono::steady_clock::now() - last_ >= std::chrono::seconds(1);
}

int serve_probe() {
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  std::vector<std::uint8_t> a(kSeqLen);
  std::vector<std::uint8_t> b(kSeqLen);
  for (int i = 0; i < kSeqLen; ++i) {
    a[i] = static_cast<std::uint8_t>(xorshift(x) & 3);
    b[i] = static_cast<std::uint8_t>(xorshift(x) & 3);
  }
  // Sattolo's shuffle: one cycle through every entry, so the walk never
  // settles into a short loop that fits in a cache.
  std::vector<std::uint32_t> next(kTableEntries);
  for (std::size_t i = 0; i < kTableEntries; ++i) next[i] = static_cast<std::uint32_t>(i);
  for (std::size_t i = kTableEntries - 1; i > 0; --i) std::swap(next[i], next[xorshift(x) % i]);

  std::vector<int> h(kSeqLen + 1);
  std::vector<int> e(kSeqLen + 1);
  std::uint32_t at = 0;
  int shift = 0;
  char request = 0;
  while (read_all(STDIN_FILENO, &request, 1)) {
    using clock = std::chrono::steady_clock;
    clock::duration fill_time{0};
    clock::duration walk_time{0};
    std::int64_t sink = 0;
    for (int round = 0; round < kRounds; ++round) {
      const auto t0 = clock::now();
      for (int k = 0; k < kFillsPerRound; ++k) {
        shift = (shift + 1) % kSeqLen;
        sink += fill(a, b, shift, h, e);
      }
      const auto t1 = clock::now();
      for (int k = 0; k < kStepsPerRound; ++k) at = next[at];
      fill_time += t1 - t0;
      walk_time += clock::now() - t1;
    }
    g_sink = sink + at;
    const double fills_per_s =
        kRounds * kFillsPerRound / std::chrono::duration<double>(fill_time).count();
    const double steps_per_s =
        kRounds * kStepsPerRound / std::chrono::duration<double>(walk_time).count();
    const double reading = std::sqrt(fills_per_s / kRefFillsPerS * (steps_per_s / kRefStepsPerS));
    if (!write_all(STDOUT_FILENO, &reading, sizeof reading)) return 1;
  }
  return 0;
}

}  // namespace perfbench
