// agcd — the coloring-as-a-service daemon (docs/SERVICE.md).
//
//   agcd --graph <spec> --socket <path>      listen on a unix socket
//   agcd --graph <spec> --port <port>        listen on 127.0.0.1:<port>
//   agcd --graph <spec> --selfcheck          no sockets: run the wire
//                                            protocol in-process and exit
//
// Options mirroring `agccli svc`: --dmax, --max-vertices, --batch, --exact,
// --threads, --jsonl FILE (structured epoch/round events).
//
// The daemon owns one svc::Service and speaks the length-prefixed frame
// protocol of include/agc/svc/wire.hpp.  It is a single-threaded poll loop:
// determinism comes from the service's epoch batching, so concurrent clients
// are serialized at the frame level and the op stream is exactly the arrival
// order — no worker pool to introduce nondeterminism.  Mutations enqueue and
// return immediately; the pending epoch commits when a batch fills or a
// client forces it (`pump`, `query`, `stats`).

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "agc/exec/executor.hpp"
#include "agc/graph/spec.hpp"
#include "agc/obs/event_sink.hpp"
#include "agc/svc/service.hpp"
#include "agc/svc/wire.hpp"

namespace {

using namespace agc;

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg != nullptr) std::fprintf(stderr, "error: %s\n\n", msg);
  std::fprintf(stderr,
               "usage: agcd --graph <spec> (--socket <path> | --port <n> | "
               "--selfcheck)\n            [--dmax <d>] [--max-vertices <m>] "
               "[--batch <b>] [--exact]\n            [--threads <n>] "
               "[--jsonl <file>]\nsee docs/SERVICE.md\n");
  std::exit(2);
}

struct Args {
  std::map<std::string, std::string> kv;
  bool has(const std::string& k) const { return kv.count(k) != 0; }
  std::string get(const std::string& k, const std::string& dflt = "") const {
    const auto it = kv.find(k);
    return it == kv.end() ? dflt : it->second;
  }
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) usage("options start with --");
    key = key.substr(2);
    if (key == "exact" || key == "selfcheck") {
      // Assigned as a std::string: GCC 12 at -O3 flags assigning the bare
      // literal with a false-positive -Wrestrict.
      a.kv[key] = std::string("1");
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for --" + key).c_str());
    a.kv[key] = argv[++i];
  }
  if (!a.has("graph")) usage("--graph is required");
  if (!a.has("socket") && !a.has("port") && !a.has("selfcheck")) {
    usage("need --socket, --port or --selfcheck");
  }
  return a;
}

/// One connected client: a bounded frame scanner raw bytes feed into.
struct Client {
  int fd;
  svc::FrameReader reader;
};

bool send_all(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + sent, bytes.size() - sent);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

int listen_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) usage("socket() failed");
  ::unlink(path.c_str());
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) usage("--socket path too long");
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 16) != 0) {
    usage("cannot bind unix socket");
  }
  return fd;
}

int listen_tcp(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) usage("socket() failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 16) != 0) {
    usage("cannot bind tcp port");
  }
  return fd;
}

/// --selfcheck: exercise the full wire path (framing + command handling +
/// epoch commits) against an in-process byte stream, no sockets.  This is
/// what the CI smoke and `ctest -R agcd` run.
int selfcheck(svc::Service& service) {
  const char* script[] = {
      "add_vertex", "add_edge 0 2", "add_edge 1 3", "pump",
      "query 1",    "remove_edge 0 2", "stats",     "quit",
  };
  // Concatenate the framed requests into one stream, then consume it the way
  // the poll loop does, asserting every frame round-trips.
  std::string stream;
  for (const char* cmd : script) stream += svc::encode_frame(cmd);
  std::string payload;
  std::size_t handled = 0;
  bool saw_quit = false;
  while (svc::decode_frame(stream, payload)) {
    const std::string reply = svc::handle_command(service, payload);
    std::printf("%-16s -> %s\n", payload.c_str(), reply.c_str());
    if (reply.rfind("err", 0) == 0) return 1;
    ++handled;
    if (svc::is_quit(payload)) saw_quit = true;
  }
  if (handled != std::size(script) || !saw_quit || !stream.empty()) return 1;
  if (service.stats().legality_violations != 0 ||
      service.stats().rejected != 0) {
    return 1;
  }

  // Second phase: the bounded reader must survive an oversized garbage frame
  // sandwiched between valid commands and resynchronize on the next prefix.
  svc::FrameReader reader;
  std::string hostile = svc::encode_frame("stats");
  const std::uint32_t huge = svc::kMaxFramePayload + 9;
  for (int i = 0; i < 4; ++i) {
    hostile.push_back(static_cast<char>((huge >> (8 * i)) & 0xff));
  }
  hostile.append(1024, '\xee');  // partial garbage payload, rest never sent...
  std::string tail(huge - 1024, '\xee');
  tail += svc::encode_frame("query 1");  // ...until here
  const svc::FrameStatus s0 = reader.next(payload);
  reader.feed(hostile);
  const svc::FrameStatus s1 = reader.next(payload);
  const bool stats_ok = s1 == svc::FrameStatus::Ok && payload == "stats";
  const svc::FrameStatus s2 = reader.next(payload);
  reader.feed(tail);
  const svc::FrameStatus s3 = reader.next(payload);
  const bool query_ok = s3 == svc::FrameStatus::Ok && payload == "query 1";
  const bool bounded = reader.buffered() < 4096;
  if (s0 != svc::FrameStatus::Incomplete || !stats_ok ||
      s2 != svc::FrameStatus::TooLarge || !query_ok || !bounded ||
      reader.next(payload) != svc::FrameStatus::Incomplete) {
    std::fprintf(stderr, "selfcheck: frame reader failed\n");
    return 1;
  }
  std::printf("selfcheck ok: %zu frames, %s\n", handled,
              service.stats().to_json(/*include_timing=*/false).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);

  svc::ServiceConfig cfg;
  try {
    cfg.spec = graph::GraphSpec::parse(a.get("graph"));
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
  cfg.delta_bound = std::strtoull(a.get("dmax", "0").c_str(), nullptr, 10);
  cfg.max_vertices =
      std::strtoull(a.get("max-vertices", "0").c_str(), nullptr, 10);
  cfg.mode = a.has("exact") ? selfstab::PaletteMode::ExactDeltaPlusOne
                            : selfstab::PaletteMode::ODelta;
  cfg.epoch_batch = std::strtoull(a.get("batch", "64").c_str(), nullptr, 10);
  cfg.run.executor = exec::make_executor(
      a.has("threads")
          ? std::strtoull(a.get("threads").c_str(), nullptr, 10)
          : exec::default_threads());

  std::ofstream jsonl_out;
  std::unique_ptr<obs::JsonlSink> sink;
  if (a.has("jsonl")) {
    jsonl_out.open(a.get("jsonl"));
    if (!jsonl_out) usage("cannot open --jsonl file");
    sink = std::make_unique<obs::JsonlSink>(jsonl_out);
    cfg.run.sink = sink.get();
  }

  svc::Service service(cfg);
  std::fprintf(stderr, "agcd: graph=%s n=%zu dmax=%zu batch=%zu\n",
               cfg.spec.to_string().c_str(), service.graph().n(),
               service.config().delta_bound, service.config().epoch_batch);

  if (a.has("selfcheck")) return selfcheck(service);

  const int listener = a.has("socket")
                           ? listen_unix(a.get("socket"))
                           : listen_tcp(static_cast<std::uint16_t>(
                                 std::strtoul(a.get("port").c_str(), nullptr, 10)));
  std::fprintf(stderr, "agcd: listening on %s\n",
               a.has("socket") ? a.get("socket").c_str()
                               : a.get("port").c_str());

  std::vector<Client> clients;
  char buf[4096];
  while (true) {
    std::vector<pollfd> fds;
    fds.push_back({listener, POLLIN, 0});
    for (const Client& c : clients) fds.push_back({c.fd, POLLIN, 0});
    if (::poll(fds.data(), fds.size(), -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if ((fds[0].revents & POLLIN) != 0) {
      const int fd = ::accept(listener, nullptr, nullptr);
      if (fd >= 0) clients.push_back({fd, svc::FrameReader()});
    }
    // Walk backwards so dropped clients don't shift pending indices.
    for (std::size_t i = clients.size(); i-- > 0;) {
      if ((fds[i + 1].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Client& c = clients[i];
      const ssize_t n = ::read(c.fd, buf, sizeof buf);
      bool drop = n <= 0;
      if (n > 0) {
        c.reader.feed({buf, static_cast<std::size_t>(n)});
        std::string payload;
        while (!drop) {
          const svc::FrameStatus st = c.reader.next(payload);
          if (st == svc::FrameStatus::Incomplete) break;
          // Oversized/garbage frames get an error reply and the connection
          // keeps serving — a confused client must not kill the daemon.
          const std::string reply = st == svc::FrameStatus::TooLarge
                                        ? "err frame too large"
                                        : svc::handle_command(service, payload);
          if (!send_all(c.fd, svc::encode_frame(reply))) drop = true;
          if (st == svc::FrameStatus::Ok && svc::is_quit(payload)) drop = true;
        }
      }
      if (drop) {
        ::close(c.fd);
        clients.erase(clients.begin() + static_cast<std::ptrdiff_t>(i));
      }
    }
  }
  ::close(listener);
  return 0;
}
