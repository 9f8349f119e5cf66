// Loopback smoke tests for the TCP serving layer (src/server/server.h):
// all six QueryKinds answered correctly over the wire (byte-identical
// to a direct Engine::Execute render), >= 4 concurrent clients across
// two catalog datasets, deterministic OVERLOADED shedding when the
// bounded queue fills, the control verbs, and pipelined replies that
// never wait on the client's delayed ACK. Run the suite with
// -DONEX_SANITIZE=thread to put the worker pool and session threads
// under TSan (CI does).

#include "server/server.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "datagen/registry.h"
#include "dataset/normalize.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/socket_io.h"

namespace onex {
namespace server {
namespace {

Dataset MakeNormalized(const std::string& generator, size_t n, size_t len,
                       uint64_t seed) {
  GenOptions gen;
  gen.num_series = n;
  gen.length = len;
  gen.seed = seed;
  auto made = MakeDatasetByName(generator, gen);
  EXPECT_TRUE(made.ok());
  Dataset d = std::move(made).value();
  MinMaxNormalize(&d);
  return d;
}

Engine BuildEngine(const std::string& generator, size_t n, uint64_t seed) {
  OnexOptions options;
  options.st = 0.2;
  options.lengths = {8, 24, 8};
  auto built =
      Engine::Build(MakeNormalized(generator, n, 24, seed), options);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return std::move(built).value();
}

std::vector<std::string> SplitLines(const std::string& block) {
  std::vector<std::string> lines;
  std::istringstream in(block);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// Two catalog datasets ("power": 10 series, "ecg": 14 series) plus
/// identically-built local twins: the builds are deterministic, so a
/// wire answer must render byte-identically to the twin's direct
/// Execute (timing header aside).
class ServerTest : public ::testing::Test {
 protected:
  void StartServer(ServerOptions options) {
    catalog_ = std::make_shared<Catalog>(CatalogOptions{});
    catalog_->Register("power", BuildEngine("ItalyPower", 10, 42));
    catalog_->Register("ecg", BuildEngine("ECG", 14, 7));
    auto started = Server::Start(std::move(options), catalog_);
    ASSERT_TRUE(started.ok()) << started.status().ToString();
    server_ = std::move(started).value();
  }

  Client Connect() {
    auto client = Client::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    EXPECT_EQ(client.value().greeting(),
              "ONEX/" + std::to_string(kWireVersion) + " ready");
    return std::move(client).value();
  }

  std::vector<double> QueryFrom(const Engine& twin, uint32_t series,
                                uint32_t start, uint32_t len) {
    const auto view = twin.dataset()[series].Subsequence(start, len);
    return std::vector<double>(view.begin(), view.end());
  }

  /// Wire payload must equal the direct answer's rendered payload.
  void ExpectWireMatchesDirect(Client& client, const Engine& twin,
                               const QueryRequest& request) {
    auto wire = client.Execute(request);
    ASSERT_TRUE(wire.ok()) << wire.status().ToString();
    ASSERT_TRUE(wire.value().ok)
        << wire.value().code << " " << wire.value().message;

    auto direct = twin.Execute(request, ExecContext{});
    ASSERT_TRUE(direct.ok());
    const auto direct_lines = SplitLines(RenderResponse(direct.value()));
    // direct_lines: header, payload..., "."; wire payload excludes both.
    ASSERT_EQ(wire.value().payload.size(), direct_lines.size() - 2);
    for (size_t i = 0; i + 2 < direct_lines.size(); ++i) {
      EXPECT_EQ(wire.value().payload[i], direct_lines[i + 1]);
    }
    EXPECT_EQ(wire.value().kind,
              std::string(ToString(KindOf(request))));
  }

  std::shared_ptr<Catalog> catalog_;
  std::unique_ptr<Server> server_;
};

// ---------------------------------------- all six kinds over the wire.

TEST_F(ServerTest, AllSixQueryKindsAnswerCorrectlyOverTheWire) {
  StartServer(ServerOptions{});
  const Engine power = BuildEngine("ItalyPower", 10, 42);

  Client client = Connect();
  auto use = client.Roundtrip("use power");
  ASSERT_TRUE(use.ok());
  ASSERT_TRUE(use.value().ok) << use.value().message;
  EXPECT_EQ(use.value().header.at("series"), "10");

  const auto query = QueryFrom(power, 2, 3, 8);
  ExpectWireMatchesDirect(client, power, BestMatchRequest{query, 8});
  ExpectWireMatchesDirect(client, power, BestMatchRequest{query, 0});
  ExpectWireMatchesDirect(client, power, KSimilarRequest{query, 5, 8});
  ExpectWireMatchesDirect(client, power,
                          RangeWithinRequest{query, 0.2, 0, true});
  ExpectWireMatchesDirect(client, power,
                          RangeWithinRequest{query, 0.2, 8, false});
  ExpectWireMatchesDirect(client, power, SeasonalRequest{uint32_t{0}, 8});
  ExpectWireMatchesDirect(client, power, SeasonalRequest{std::nullopt, 8});
  ExpectWireMatchesDirect(client, power,
                          RecommendRequest{std::nullopt, size_t{0}});
  ExpectWireMatchesDirect(client, power,
                          RecommendRequest{SimilarityDegree::kStrict, 8});
  ExpectWireMatchesDirect(client, power, RefineThresholdRequest{0.1, 16});
  ExpectWireMatchesDirect(client, power, RefineThresholdRequest{0.1, 0});
}

// --------------------------------- concurrent clients, two datasets.

TEST_F(ServerTest, FourConcurrentClientsAcrossTwoDatasets) {
  ServerOptions options;
  options.num_workers = 2;
  StartServer(options);
  const Engine power = BuildEngine("ItalyPower", 10, 42);
  const Engine ecg = BuildEngine("ECG", 14, 7);

  constexpr int kClients = 6;
  constexpr int kQueriesPerClient = 20;
  std::atomic<int> failures{0};

  auto session = [&](int id) {
    const bool use_power = (id % 2 == 0);
    const Engine& twin = use_power ? power : ecg;
    auto connected = Client::Connect("127.0.0.1", server_->port());
    if (!connected.ok()) {
      failures.fetch_add(1);
      return;
    }
    Client client = std::move(connected).value();
    auto use = client.Roundtrip(use_power ? "use power" : "use ecg");
    if (!use.ok() || !use.value().ok) {
      failures.fetch_add(1);
      return;
    }
    for (int i = 0; i < kQueriesPerClient; ++i) {
      const uint32_t series = static_cast<uint32_t>((id + i) %
                                                    twin.num_series());
      const auto query = QueryFrom(twin, series, (i * 3) % 16, 8);
      const QueryRequest request = BestMatchRequest{query, 8};
      auto wire = client.Execute(request);
      if (!wire.ok() || !wire.value().ok || wire.value().payload.size() < 2) {
        failures.fetch_add(1);
        continue;
      }
      // Parity with the twin proves the session is wired to the right
      // engine: builds are deterministic and %.17g round-trips exactly.
      auto direct = twin.Execute(request, ExecContext{});
      const auto fields = ParseKeyValues(wire.value().payload[1]);
      if (!direct.ok() ||
          std::stod(fields.at("distance")) !=
              direct.value().matches()[0].distance ||
          std::stoul(fields.at("series")) !=
              direct.value().matches()[0].ref.series) {
        failures.fetch_add(1);
      }
    }
  };

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) clients.emplace_back(session, c);
  for (auto& t : clients) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(server_->metrics().requests(),
            static_cast<uint64_t>(kClients) * kQueriesPerClient);
}

// ------------------------------------------- deterministic shedding.

TEST_F(ServerTest, ShedsLoadWithOverloadedWhenQueueIsFull) {
  // One worker, one queue slot. The test hooks make the schedule
  // deterministic: job A blocks inside the worker, job B fills the
  // queue, job C must be shed.
  // The hooks share this state with the test body: a session thread
  // calls on_enqueue after its job is queued, which can be after the
  // job's reply has reached the client and the body has returned.
  struct HookState {
    std::mutex mutex;
    std::condition_variable cv;
    bool job_started = false;
    bool release_jobs = false;
    std::atomic<int> enqueued{0};
  };
  const auto state = std::make_shared<HookState>();
  std::mutex& mutex = state->mutex;
  std::condition_variable& cv = state->cv;
  bool& job_started = state->job_started;
  bool& release_jobs = state->release_jobs;
  std::atomic<int>& enqueued = state->enqueued;

  ServerOptions options;
  options.num_workers = 1;
  options.max_queue = 1;
  options.on_job_start = [state] {
    std::unique_lock<std::mutex> lock(state->mutex);
    state->job_started = true;
    state->cv.notify_all();
    state->cv.wait(lock, [&] { return state->release_jobs; });
  };
  options.on_enqueue = [state](size_t) {
    // Lock so the increment cannot slip between a waiter's predicate
    // check and its sleep (lost wakeup).
    std::lock_guard<std::mutex> lock(state->mutex);
    state->enqueued.fetch_add(1);
    state->cv.notify_all();
  };
  StartServer(options);
  const Engine power = BuildEngine("ItalyPower", 10, 42);
  const auto query = QueryFrom(power, 1, 0, 8);
  const std::string query_line =
      RenderRequestLine(BestMatchRequest{query, 8});

  auto blocked_roundtrip = [&](std::atomic<bool>* ok) {
    Client client = Connect();
    if (!client.Roundtrip("use power").ok()) return;
    auto reply = client.Roundtrip(query_line);
    *ok = reply.ok() && reply.value().ok;
  };

  // Client A: its job reaches the worker and blocks in on_job_start.
  std::atomic<bool> a_ok{false};
  std::thread client_a(blocked_roundtrip, &a_ok);
  std::atomic<bool> b_ok{false};
  std::thread client_b;

  // If any ASSERT below fires, still release the worker and join the
  // client threads — otherwise the early return destroys joinable
  // std::threads (std::terminate) and leaves the worker blocked on
  // stack variables that are about to die.
  struct Cleanup {
    std::mutex& mutex;
    std::condition_variable& cv;
    bool& release_jobs;
    std::thread& a;
    std::thread& b;
    ~Cleanup() {
      {
        std::lock_guard<std::mutex> lock(mutex);
        release_jobs = true;
      }
      cv.notify_all();
      if (a.joinable()) a.join();
      if (b.joinable()) b.join();
    }
  } cleanup{mutex, cv, release_jobs, client_a, client_b};

  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return job_started; });
  }

  // Client B: fills the single queue slot (2nd enqueue observed).
  client_b = std::thread(blocked_roundtrip, &b_ok);
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return enqueued.load() >= 2; });
  }

  // Client C: queue full -> explicit shed, immediately.
  Client client_c = Connect();
  ASSERT_TRUE(client_c.Roundtrip("use power").ok());
  auto shed = client_c.Roundtrip(query_line);
  ASSERT_TRUE(shed.ok()) << shed.status().ToString();
  EXPECT_FALSE(shed.value().ok);
  EXPECT_EQ(shed.value().code, kOverloadedCode);

  // Release the worker; A and B complete normally.
  {
    std::lock_guard<std::mutex> lock(mutex);
    release_jobs = true;
  }
  cv.notify_all();
  client_a.join();
  client_b.join();
  EXPECT_TRUE(a_ok.load());
  EXPECT_TRUE(b_ok.load());
  EXPECT_GE(server_->metrics().overloaded(), 1u);

  // After the burst the server still answers.
  auto after = client_c.Roundtrip(query_line);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after.value().ok);
}

// ------------------------------------------------------ control verbs.

TEST_F(ServerTest, ControlVerbsAndErrorPaths) {
  StartServer(ServerOptions{});
  Client client = Connect();

  // Query before USE: explicit NO_DATASET error.
  auto unbound = client.Roundtrip("q1 8 0.1,0.2,0.3");
  ASSERT_TRUE(unbound.ok());
  EXPECT_FALSE(unbound.value().ok);
  EXPECT_EQ(unbound.value().code, kNoDatasetCode);

  // Unknown verbs and unknown datasets are structured errors.
  auto garbage = client.Roundtrip("frobnicate 12");
  ASSERT_TRUE(garbage.ok());
  EXPECT_EQ(garbage.value().code, "INVALID_ARGUMENT");
  auto missing = client.Roundtrip("use no-such-dataset");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing.value().code, "NOT_FOUND");

  // LIST shows both catalog datasets.
  auto list = client.Roundtrip("list");
  ASSERT_TRUE(list.ok());
  ASSERT_TRUE(list.value().ok);
  EXPECT_EQ(list.value().header.at("datasets"), "2");
  ASSERT_EQ(list.value().payload.size(), 2u);
  EXPECT_EQ(ParseKeyValues(list.value().payload[0]).at("name"), "ecg");
  EXPECT_EQ(ParseKeyValues(list.value().payload[1]).at("name"), "power");

  // PING / HELP.
  auto ping = client.Roundtrip("ping");
  ASSERT_TRUE(ping.ok());
  EXPECT_EQ(ping.value().kind, "Pong");
  auto help = client.Roundtrip("help");
  ASSERT_TRUE(help.ok());
  EXPECT_GT(help.value().payload.size(), 4u);

  // An engine error (unconstructed length) travels as its wire code.
  ASSERT_TRUE(client.Roundtrip("use power").ok());
  auto bad_length = client.Roundtrip("q1 7 0.1,0.2,0.3");
  ASSERT_TRUE(bad_length.ok());
  EXPECT_FALSE(bad_length.value().ok);
  EXPECT_EQ(bad_length.value().code, "NOT_FOUND");

  // STATS reflects the traffic this test generated.
  auto stats = client.Roundtrip("stats");
  ASSERT_TRUE(stats.ok());
  ASSERT_TRUE(stats.value().ok);
  bool saw_server_line = false;
  bool saw_catalog_line = false;
  for (const std::string& line : stats.value().payload) {
    if (line.rfind("server ", 0) == 0) {
      saw_server_line = true;
      const auto fields = ParseKeyValues(line);
      EXPECT_GE(std::stoull(fields.at("requests")), 1u);
      EXPECT_GE(std::stoull(fields.at("bad_requests")), 2u);
    }
    if (line.rfind("catalog ", 0) == 0) saw_catalog_line = true;
  }
  EXPECT_TRUE(saw_server_line);
  EXPECT_TRUE(saw_catalog_line);

  // QUIT ends the session server-side.
  auto bye = client.Roundtrip("quit");
  ASSERT_TRUE(bye.ok());
  EXPECT_EQ(bye.value().kind, "Bye");
  EXPECT_FALSE(client.Roundtrip("ping").ok());
}

TEST_F(ServerTest, TaggedRequestThatFailsToParseStillCompletes) {
  StartServer(ServerOptions{});
  Client client = Connect();
  ASSERT_TRUE(client.Roundtrip("use power").ok());

  // A NaN renders as a value the server's parser refuses, after the
  // line's id= attribute has been read.
  auto done = std::make_shared<std::promise<void>>();
  Client::SubmitOptions options;
  options.on_done = [done] { done->set_value(); };
  auto handle = client.Submit(
      QueryRequest(BestMatchRequest{
          {0.1, std::numeric_limits<double>::quiet_NaN(), 0.3}, 3}),
      options);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  ASSERT_EQ(done->get_future().wait_for(std::chrono::seconds(2)),
            std::future_status::ready);
  auto final = handle.value().Wait();
  ASSERT_TRUE(final.ok()) << final.status().ToString();
  EXPECT_FALSE(final.value().ok);
  EXPECT_EQ(final.value().code, "INVALID_ARGUMENT");

  // The error answered the tagged request, so untagged replies stay in
  // step with their requests.
  auto ping = client.Roundtrip("ping");
  ASSERT_TRUE(ping.ok());
  EXPECT_EQ(ping.value().kind, "Pong");
}

TEST_F(ServerTest, DefaultDatasetBindsSessionsAtConnect) {
  ServerOptions options;
  options.default_dataset = "ecg";
  StartServer(options);
  const Engine ecg = BuildEngine("ECG", 14, 7);

  Client client = Connect();
  // No USE line needed: the query answers against the default dataset.
  const auto query = QueryFrom(ecg, 3, 2, 8);
  ExpectWireMatchesDirect(client, ecg, BestMatchRequest{query, 8});
}

// ------------------------------------- pipelined replies, no Nagle.

TEST_F(ServerTest, PipelinedRepliesDoNotWaitForTheNextRequest) {
  ServerOptions options;
  options.num_workers = 2;
  StartServer(options);
  const Engine power = BuildEngine("ItalyPower", 10, 42);
  const std::string query = RenderRequestLine(
      QueryRequest(BestMatchRequest{QueryFrom(power, 2, 3, 8), 8}));

  // A plain socket with the kernel's defaults (Nagle on, delayed ACKs),
  // so both requests can go out in one write.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server_->port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  SocketLineReader reader(fd, 1 << 20);
  std::string line;
  ASSERT_TRUE(reader.ReadLine(&line));  // Greeting.
  // Reads reply blocks until `blocks` have arrived; false on an ERR.
  auto read_blocks = [&](int blocks) {
    while (blocks > 0 && reader.ReadLine(&line)) {
      if (line.rfind("ERR", 0) == 0) return false;
      if (line == ".") --blocks;
    }
    return blocks == 0;
  };
  ASSERT_TRUE(SendAll(fd, "use power\n") && read_blocks(1));
  // Enough round trips for this end to leave its quick-ACK start and
  // delay ACKs, as on any long-lived session.
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(SendAll(fd, query + "\n") && read_blocks(1));
  }

  double best_ms = 1e9;
  for (int trial = 0; trial < 5; ++trial) {
    // Fresh ids: a final is sent before its id is released.
    const std::string first = std::to_string(2 * trial + 1);
    const std::string second = std::to_string(2 * trial + 2);
    const auto started = std::chrono::steady_clock::now();
    ASSERT_TRUE(SendAll(fd, "id=" + first + " " + query + "\nid=" + second +
                                " " + query + "\n"));
    ASSERT_TRUE(read_blocks(2));
    best_ms = std::min(best_ms, std::chrono::duration<double, std::milli>(
                                    std::chrono::steady_clock::now() - started)
                                    .count());
  }
  ::close(fd);
  // No third request follows to carry the ACK of the first reply; a
  // second reply held back by Nagle would wait for this end's
  // delayed-ACK timer, 40 ms on Linux.
  EXPECT_LT(best_ms, 20.0);
}

TEST_F(ServerTest, StopIsIdempotentAndDisconnectsClients) {
  StartServer(ServerOptions{});
  Client client = Connect();
  ASSERT_TRUE(client.Roundtrip("ping").ok());

  server_->Stop();
  server_->Stop();  // Idempotent.

  // The session socket was shut down; the next round trip fails cleanly.
  EXPECT_FALSE(client.Roundtrip("ping").ok());
  // And new connections are refused.
  EXPECT_FALSE(Client::Connect("127.0.0.1", server_->port()).ok());
}

}  // namespace
}  // namespace server
}  // namespace onex
