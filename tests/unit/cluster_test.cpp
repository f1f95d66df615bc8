// Unit tests for the cluster substrate: processes, channels, tracing.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cluster/machine.hpp"
#include "cluster/tracing.hpp"
#include "simkernel/simulator.hpp"

namespace lmon::cluster {
namespace {

/// Program whose behaviour is supplied by std::functions, for direct tests.
class Hooks : public Program {
 public:
  std::function<void(Process&)> start;
  std::function<void(Process&, ChannelPtr)> connection;
  std::function<void(Process&, const ChannelPtr&, Message)> message;
  std::function<void(Process&, const ChannelPtr&)> closed;
  std::function<void(Process&, Pid, int)> child_exit;
  std::function<void(ProcStats&)> tick;

  [[nodiscard]] std::string_view name() const override { return "hooks"; }
  void on_start(Process& self) override {
    if (start) start(self);
  }
  void on_connection(Process& self, ChannelPtr ch) override {
    if (connection) connection(self, std::move(ch));
  }
  void on_message(Process& self, const ChannelPtr& ch, Message m) override {
    if (message) message(self, ch, std::move(m));
  }
  void on_channel_closed(Process& self, const ChannelPtr& ch) override {
    if (closed) closed(self, ch);
  }
  void on_child_exit(Process& self, Pid child, int code) override {
    if (child_exit) child_exit(self, child, code);
  }
  void on_tick(ProcStats& stats) override {
    if (tick) tick(stats);
  }
};

struct Fixture {
  Fixture() : machine(sim, MachineConfig{4, 0, "test", CostModel{}.deterministic()}) {}
  sim::Simulator sim;
  Machine machine;

  Pid spawn_hooks(Node& node, std::unique_ptr<Hooks> hooks,
                  SpawnOptions opts = {}) {
    auto res = node.spawn(std::move(hooks), std::move(opts));
    EXPECT_TRUE(res.is_ok());
    return res.value;
  }
};

TEST(Cluster, SpawnChargesForkExecCost) {
  Fixture f;
  sim::Time started_at = -1;
  auto hooks = std::make_unique<Hooks>();
  hooks->start = [&](Process& self) { started_at = self.sim().now(); };
  SpawnOptions opts;
  opts.image_mb = 10.0;
  f.spawn_hooks(f.machine.node(0), std::move(hooks), std::move(opts));
  f.sim.run();
  const auto& c = f.machine.costs();
  const sim::Time expected = c.fork_cost + c.exec_base_cost +
                             static_cast<sim::Time>(
                                 10.0 * static_cast<double>(c.exec_per_mb)) +
                             c.sched_latency;
  EXPECT_EQ(started_at, expected);
}

TEST(Cluster, HostnameLayout) {
  Fixture f;
  EXPECT_EQ(f.machine.front_end().hostname(), "test-fe");
  EXPECT_EQ(f.machine.compute_node(0).hostname(), "test1");
  EXPECT_EQ(f.machine.compute_node(3).hostname(), "test4");
  EXPECT_NE(f.machine.find_host("test2"), nullptr);
  EXPECT_EQ(f.machine.find_host("nonesuch"), nullptr);
  // A view into a longer list (a host table entry) finds its node.
  const std::string_view list = "test3,test4";
  EXPECT_EQ(f.machine.find_host(list.substr(0, 5)), &f.machine.compute_node(2));
  EXPECT_EQ(f.machine.find_host(list.substr(6)), &f.machine.compute_node(3));
  EXPECT_EQ(f.machine.find_host(list.substr(0, 4)), nullptr);
}

TEST(Cluster, ConnectAndExchangeMessages) {
  Fixture f;
  std::vector<std::string> server_got;
  std::vector<std::string> client_got;

  auto server = std::make_unique<Hooks>();
  server->start = [](Process& self) { ASSERT_TRUE(self.listen(9000).is_ok()); };
  server->message = [&](Process& self, const ChannelPtr& ch, Message m) {
    server_got.emplace_back(m.bytes.begin(), m.bytes.end());
    ByteWriter w;
    w.raw(as_bytes("pong"));
    self.send(ch, Message(std::move(w).take()));
  };
  f.spawn_hooks(f.machine.compute_node(0), std::move(server));

  auto client = std::make_unique<Hooks>();
  client->start = [&](Process& self) {
    self.connect("test1", 9000, [&self](Status st, ChannelPtr ch) {
      ASSERT_TRUE(st.is_ok());
      ByteWriter w;
      w.raw(as_bytes("ping"));
      self.send(ch, Message(std::move(w).take()));
    });
  };
  client->message = [&](Process&, const ChannelPtr&, Message m) {
    client_got.emplace_back(m.bytes.begin(), m.bytes.end());
  };
  f.spawn_hooks(f.machine.front_end(), std::move(client));

  f.sim.run();
  ASSERT_EQ(server_got.size(), 1u);
  EXPECT_EQ(server_got[0], "ping");
  ASSERT_EQ(client_got.size(), 1u);
  EXPECT_EQ(client_got[0], "pong");
}

TEST(Cluster, ConnectionRefusedWithoutListener) {
  Fixture f;
  Status result;
  bool called = false;
  auto client = std::make_unique<Hooks>();
  client->start = [&](Process& self) {
    self.connect("test1", 12345, [&](Status st, ChannelPtr) {
      result = st;
      called = true;
    });
  };
  f.spawn_hooks(f.machine.front_end(), std::move(client));
  f.sim.run();
  EXPECT_TRUE(called);
  EXPECT_EQ(result.rc(), Rc::Esubcom);
}

TEST(Cluster, ConnectToUnknownHostFails) {
  Fixture f;
  Status result;
  auto client = std::make_unique<Hooks>();
  client->start = [&](Process& self) {
    self.connect("mars", 80, [&](Status st, ChannelPtr) { result = st; });
  };
  f.spawn_hooks(f.machine.front_end(), std::move(client));
  f.sim.run();
  EXPECT_EQ(result.rc(), Rc::Esubcom);
}

TEST(Cluster, MessagesArriveInFifoOrderDespiteJitter) {
  sim::Simulator sim;
  CostModel jittery;  // keep default jitter on
  Machine machine(sim, MachineConfig{2, 0, "test", jittery});

  std::vector<int> received;
  auto server = std::make_unique<Hooks>();
  server->start = [](Process& self) { (void)self.listen(9001); };
  server->message = [&](Process&, const ChannelPtr&, Message m) {
    ByteReader r(m.bytes);
    received.push_back(static_cast<int>(*r.u32()));
  };
  auto sres = machine.compute_node(0).spawn(std::move(server), {});
  ASSERT_TRUE(sres.is_ok());

  auto client = std::make_unique<Hooks>();
  client->start = [&](Process& self) {
    self.connect("test1", 9001, [&self](Status st, ChannelPtr ch) {
      ASSERT_TRUE(st.is_ok());
      for (int i = 0; i < 50; ++i) {
        ByteWriter w;
        w.u32(static_cast<std::uint32_t>(i));
        self.send(ch, Message(std::move(w).take()));
      }
    });
  };
  auto cres = machine.front_end().spawn(std::move(client), {});
  ASSERT_TRUE(cres.is_ok());
  sim.run();
  ASSERT_EQ(received.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(received[static_cast<size_t>(i)], i);
}

struct Arrival {
  sim::Time at = 0;
  std::size_t size = 0;
  std::uint8_t seq = 0;
  const std::uint8_t* view = nullptr;
};

/// Sends one message per entry of `sizes` over a jittered channel and
/// records every arrival. With `as_view`, each message is a 3-byte header
/// plus a view of a shared pool; otherwise all its bytes are in the frame.
std::vector<Arrival> transfer(const std::vector<std::size_t>& sizes,
                              bool as_view,
                              std::shared_ptr<const Bytes> pool) {
  sim::Simulator sim(7);
  Machine machine(sim, MachineConfig{2, 0, "test", CostModel{}});
  std::vector<Arrival> got;
  auto server = std::make_unique<Hooks>();
  server->start = [](Process& self) { (void)self.listen(9010); };
  server->message = [&](Process& self, const ChannelPtr&, Message m) {
    got.push_back({self.sim().now(), m.size(), m.bytes.at(0), m.view.data()});
  };
  EXPECT_TRUE(machine.compute_node(0).spawn(std::move(server), {}).is_ok());
  auto client = std::make_unique<Hooks>();
  client->start = [&](Process& self) {
    self.connect("test1", 9010, [&](Status st, ChannelPtr ch) {
      ASSERT_TRUE(st.is_ok());
      for (std::size_t i = 0; i < sizes.size(); ++i) {
        const auto seq = static_cast<std::uint8_t>(i);
        if (as_view) {
          self.send(ch, Message(Bytes{seq, 0, 0},
                                ByteSlice(pool, i, sizes[i] - 3)));
        } else {
          Bytes flat(sizes[i], 0);
          flat[0] = seq;
          self.send(ch, Message(std::move(flat)));
        }
      }
    });
  };
  EXPECT_TRUE(machine.front_end().spawn(std::move(client), {}).is_ok());
  sim.run();
  return got;
}

TEST(Cluster, HeaderPlusViewTravelsExactlyLikeAFlatMessageOfEqualSize) {
  // A 1 MiB message followed by small ones makes the FIFO clamp engage.
  const std::vector<std::size_t> sizes = {3,    40,  64 * 1024 + 25, 25,
                                          1 << 20, 700, 3,    9000};
  auto pool = std::make_shared<const Bytes>(Bytes((1 << 20) + 64, 0x33));
  const auto flat = transfer(sizes, false, pool);
  const auto view = transfer(sizes, true, pool);
  ASSERT_EQ(flat.size(), sizes.size());
  ASSERT_EQ(view.size(), sizes.size());
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    EXPECT_EQ(view[i].seq, i) << "FIFO order";
    EXPECT_EQ(view[i].seq, flat[i].seq);
    EXPECT_EQ(view[i].at, flat[i].at) << "message " << i;
    EXPECT_EQ(view[i].size, sizes[i]);
    EXPECT_EQ(flat[i].size, sizes[i]);
    // The receiver sees the sender's bytes, not a copy of them.
    EXPECT_EQ(view[i].view, pool->data() + i);
  }
  // The clamp did engage: the message after the 1 MiB one arrived 1 ns
  // behind it, not after its own (shorter) transfer time.
  EXPECT_EQ(flat[5].at, flat[4].at + 1);
}

TEST(Cluster, PeerGetsClosedNotification) {
  Fixture f;
  bool closed = false;
  auto server = std::make_unique<Hooks>();
  server->start = [](Process& self) { (void)self.listen(9002); };
  server->closed = [&](Process&, const ChannelPtr&) { closed = true; };
  f.spawn_hooks(f.machine.compute_node(0), std::move(server));

  auto client = std::make_unique<Hooks>();
  client->start = [&](Process& self) {
    self.connect("test1", 9002, [&self](Status st, ChannelPtr ch) {
      ASSERT_TRUE(st.is_ok());
      self.close_channel(ch);
    });
  };
  f.spawn_hooks(f.machine.front_end(), std::move(client));
  f.sim.run();
  EXPECT_TRUE(closed);
}

TEST(Cluster, ProcessExitClosesChannelsAndNotifiesParent) {
  Fixture f;
  bool peer_saw_close = false;
  int child_code = -1;
  Pid child_pid = kInvalidPid;

  auto server = std::make_unique<Hooks>();
  server->start = [](Process& self) { (void)self.listen(9003); };
  server->closed = [&](Process&, const ChannelPtr&) { peer_saw_close = true; };
  f.spawn_hooks(f.machine.compute_node(0), std::move(server));

  auto parent = std::make_unique<Hooks>();
  parent->start = [&](Process& self) {
    auto child = std::make_unique<Hooks>();
    child->start = [](Process& me) {
      me.connect("test1", 9003, [&me](Status st, ChannelPtr) {
        ASSERT_TRUE(st.is_ok());
        me.post(sim::ms(1), [&me] { me.exit(7); });
      });
    };
    auto res = self.spawn_child(std::move(child), {});
    ASSERT_TRUE(res.is_ok());
    child_pid = res.value;
  };
  parent->child_exit = [&](Process&, Pid c, int code) {
    EXPECT_EQ(c, child_pid);
    child_code = code;
  };
  f.spawn_hooks(f.machine.front_end(), std::move(parent));
  f.sim.run();
  EXPECT_TRUE(peer_saw_close);
  EXPECT_EQ(child_code, 7);
  EXPECT_EQ(f.machine.find_process(child_pid)->state(), ProcState::Exited);
}

TEST(Cluster, ChildLimitCausesForkFailure) {
  Fixture f;
  std::vector<Status> results;
  auto parent = std::make_unique<Hooks>();
  parent->start = [&](Process& self) {
    self.set_child_limit(3);
    for (int i = 0; i < 5; ++i) {
      auto res = self.spawn_child(std::make_unique<Hooks>(), {});
      results.push_back(res.status);
    }
  };
  f.spawn_hooks(f.machine.front_end(), std::move(parent));
  f.sim.run();
  ASSERT_EQ(results.size(), 5u);
  EXPECT_TRUE(results[0].is_ok());
  EXPECT_TRUE(results[2].is_ok());
  EXPECT_EQ(results[3].rc(), Rc::Esys);
  EXPECT_EQ(results[4].rc(), Rc::Esys);
}

TEST(Cluster, StartedCallbackFiresAfterChildStart) {
  Fixture f;
  bool child_started = false;
  bool callback_fired = false;
  auto parent = std::make_unique<Hooks>();
  parent->start = [&](Process& self) {
    auto child = std::make_unique<Hooks>();
    child->start = [&](Process&) { child_started = true; };
    SpawnOptions opts;
    opts.started_callback = [&](Pid) {
      EXPECT_TRUE(child_started);
      callback_fired = true;
    };
    ASSERT_TRUE(self.spawn_child(std::move(child), std::move(opts)).is_ok());
  };
  f.spawn_hooks(f.machine.front_end(), std::move(parent));
  f.sim.run();
  EXPECT_TRUE(callback_fired);
}

TEST(Cluster, ChannelHandlerOverridesProgramRouting) {
  Fixture f;
  int handler_msgs = 0;
  int program_msgs = 0;
  auto server = std::make_unique<Hooks>();
  server->start = [&handler_msgs](Process& self) {
    (void)self.listen(9004, [&handler_msgs, &self](ChannelPtr ch) {
      self.set_channel_handler(
          ch, [&handler_msgs](const ChannelPtr&, Message) { ++handler_msgs; });
    });
  };
  server->message = [&](Process&, const ChannelPtr&, Message) {
    ++program_msgs;
  };
  f.spawn_hooks(f.machine.compute_node(0), std::move(server));

  auto client = std::make_unique<Hooks>();
  client->start = [&](Process& self) {
    self.connect("test1", 9004, [&self](Status st, ChannelPtr ch) {
      ASSERT_TRUE(st.is_ok());
      self.send(ch, Message(Bytes{1, 2, 3}));
      self.send(ch, Message(Bytes{4}));
    });
  };
  f.spawn_hooks(f.machine.front_end(), std::move(client));
  f.sim.run();
  EXPECT_EQ(handler_msgs, 2);
  EXPECT_EQ(program_msgs, 0);
}

TEST(Cluster, ListenTwiceOnSamePortFails) {
  Fixture f;
  Status second;
  auto p = std::make_unique<Hooks>();
  p->start = [&](Process& self) {
    EXPECT_TRUE(self.listen(9005).is_ok());
    second = self.listen(9005);
  };
  f.spawn_hooks(f.machine.front_end(), std::move(p));
  f.sim.run();
  EXPECT_EQ(second.rc(), Rc::Esys);
}

// --- tracing ----------------------------------------------------------------

TEST(Tracing, BreakpointStopsOnlyWhenTraced) {
  Fixture f;
  bool resumed_untraced = false;
  auto p = std::make_unique<Hooks>();
  p->start = [&](Process& self) {
    self.breakpoint("SYM", [&] { resumed_untraced = true; });
  };
  f.spawn_hooks(f.machine.front_end(), std::move(p));
  f.sim.run();
  EXPECT_TRUE(resumed_untraced);
}

TEST(Tracing, SpawnTracedBreakpointContinueCycle) {
  Fixture f;
  std::vector<std::string> events;
  bool tracee_resumed = false;

  auto tracer = std::make_unique<Hooks>();
  tracer->start = [&](Process& self) {
    auto tracee = std::make_unique<Hooks>();
    tracee->start = [&](Process& me) {
      me.symbols().write("DATA", Bytes{9, 9, 9});
      me.breakpoint("BP", [&] { tracee_resumed = true; });
    };
    auto res = self.spawn_traced(
        std::move(tracee), {}, [&](const DebugEvent& ev) {
          if (ev.type == DebugEventType::Stopped) {
            events.push_back("stop@" + ev.symbol);
            Process* t = f.machine.find_process(ev.target);
            EXPECT_EQ(t->state(), ProcState::Stopped);
            EXPECT_FALSE(tracee_resumed);
          }
        });
    ASSERT_TRUE(res.is_ok());
    TraceSession* session = res.value.second;
    // Drive from a timer: once stopped, read target memory, then continue.
    self.post(sim::seconds(1), [&, session] {
      session->read_symbol("DATA", [&, session](Status st, Bytes data) {
        EXPECT_TRUE(st.is_ok());
        EXPECT_EQ(data, (Bytes{9, 9, 9}));
        events.push_back("read");
        session->continue_target();
      });
    });
  };
  f.spawn_hooks(f.machine.front_end(), std::move(tracer));
  f.sim.run();
  ASSERT_GE(events.size(), 2u);
  EXPECT_EQ(events[0], "stop@BP");
  EXPECT_EQ(events[1], "read");
  EXPECT_TRUE(tracee_resumed);
}

TEST(Tracing, AttachStopsRunningProcessAndDetachResumes) {
  Fixture f;
  Pid target_pid = kInvalidPid;
  int ticks = 0;

  auto target = std::make_unique<Hooks>();
  // A self-reposting functor rather than a closure owning a shared_ptr to
  // itself, which would be a reference cycle (a leak under LeakSanitizer).
  struct Ticker {
    Process* self;
    int* ticks;
    void operator()() const {
      ++*ticks;
      self->post(sim::ms(10), *this);
    }
  };
  target->start = [&ticks](Process& self) {
    self.post(sim::ms(10), Ticker{&self, &ticks});
  };
  target_pid = f.spawn_hooks(f.machine.compute_node(0), std::move(target));

  f.sim.run(sim::ms(100));
  const int ticks_before = ticks;
  EXPECT_GT(ticks_before, 0);

  TraceSession* session = nullptr;
  auto tracer = std::make_unique<Hooks>();
  tracer->start = [&](Process& self) {
    auto res = self.trace_attach(target_pid, [&](const DebugEvent& ev) {
      EXPECT_EQ(ev.type, DebugEventType::Attached);
    });
    ASSERT_TRUE(res.is_ok());
    session = res.value;
  };
  f.spawn_hooks(f.machine.front_end(), std::move(tracer));
  f.sim.run(sim::ms(200));
  EXPECT_EQ(f.machine.find_process(target_pid)->state(), ProcState::Stopped);

  // Stopped: no ticks accumulate.
  const int frozen = ticks;
  f.sim.run(sim::ms(500));
  EXPECT_EQ(ticks, frozen);

  session->detach();
  f.sim.run(sim::ms(800));
  EXPECT_EQ(f.machine.find_process(target_pid)->state(), ProcState::Running);
  EXPECT_GT(ticks, frozen);
}

TEST(Tracing, MessagesHeldWhileStoppedArriveInOrderOnResume) {
  Fixture f;
  constexpr int kBacklog = 2000;
  std::vector<int> received;

  auto receiver = std::make_unique<Hooks>();
  receiver->start = [](Process& self) { ASSERT_TRUE(self.listen(9000).is_ok()); };
  receiver->message = [&](Process&, const ChannelPtr&, Message m) {
    ByteReader r(m.bytes);
    received.push_back(static_cast<int>(*r.u32()));
  };
  const Pid receiver_pid =
      f.spawn_hooks(f.machine.compute_node(0), std::move(receiver));

  ChannelPtr channel;
  auto sender = std::make_unique<Hooks>();
  sender->start = [&](Process& self) {
    self.connect("test1", 9000, [&](Status st, ChannelPtr ch) {
      ASSERT_TRUE(st.is_ok());
      channel = std::move(ch);
    });
  };
  const Pid sender_pid =
      f.spawn_hooks(f.machine.compute_node(1), std::move(sender));

  TraceSession* session = nullptr;
  auto tracer = std::make_unique<Hooks>();
  tracer->start = [&](Process& self) {
    auto res = self.trace_attach(receiver_pid, [](const DebugEvent&) {});
    ASSERT_TRUE(res.is_ok());
    session = res.value;
  };
  f.spawn_hooks(f.machine.front_end(), std::move(tracer));
  f.sim.run();
  ASSERT_NE(channel, nullptr);
  ASSERT_NE(session, nullptr);
  ASSERT_EQ(f.machine.find_process(receiver_pid)->state(), ProcState::Stopped);

  Process* sp = f.machine.find_process(sender_pid);
  for (int i = 0; i < kBacklog; ++i) {
    ByteWriter w;
    w.u32(static_cast<std::uint32_t>(i));
    sp->send(channel, Message(std::move(w).take()));
  }
  f.sim.run();
  EXPECT_TRUE(received.empty());  // all held by the stopped receiver

  session->detach();
  f.sim.run();
  ASSERT_EQ(received.size(), static_cast<std::size_t>(kBacklog));
  for (int i = 0; i < kBacklog; ++i) {
    ASSERT_EQ(received[static_cast<std::size_t>(i)], i);
  }
}

TEST(Tracing, TickHeldWhileStoppedRunsInArrivalOrderAndTicksEndAtExit) {
  // Ticks follow post()'s delivery rules: the tick that comes due while
  // the process is Stopped runs on resume among the held deliveries, in
  // arrival order, and restarts the phase; at exit the pending tick still
  // comes due (the clock counts it) but runs nothing.
  constexpr sim::Time kPeriod = sim::ms(7);
  Fixture f;
  std::vector<std::string> ran;
  sim::Time origin = -1;
  auto program = std::make_unique<Hooks>();
  program->start = [&](Process& self) {
    origin = self.sim().now();
    self.start_ticks(kPeriod);
  };
  program->tick = [&](ProcStats& st) {
    ++st.utime_ms;
    ran.emplace_back("tick");
  };
  const Pid target_pid =
      f.spawn_hooks(f.machine.compute_node(0), std::move(program));
  TraceSession* session = nullptr;
  sim::Time stopped_at = -1;
  auto tracer = std::make_unique<Hooks>();
  tracer->start = [&](Process& self) {
    auto res = self.trace_attach(target_pid, [](const DebugEvent&) {});
    ASSERT_TRUE(res.is_ok());
    session = res.value;
    stopped_at = self.sim().now() + f.machine.costs().trace_attach_cost;
  };
  f.spawn_hooks(f.machine.front_end(), std::move(tracer));
  f.sim.run(sim::ms(3));
  ASSERT_GT(stopped_at, 0);
  f.sim.run(stopped_at);
  Process* target = f.machine.find_process(target_pid);
  ASSERT_NE(session, nullptr);
  ASSERT_EQ(target->state(), ProcState::Stopped);
  const auto before_stop =
      static_cast<std::size_t>((stopped_at - origin) / kPeriod);
  EXPECT_EQ(target->stats().utime_ms, before_stop);
  ASSERT_EQ(ran.size(), before_stop);

  // Held: one delivery arrives before the held tick comes due, one after.
  const sim::Time held =
      origin + (static_cast<sim::Time>(before_stop) + 1) * kPeriod;
  const sim::Time now = f.sim.now();
  ASSERT_LT(now, held - 1);
  target->post(held - 1 - now, [&] { ran.emplace_back("before"); });
  target->post(held + sim::ms(1) - now, [&] { ran.emplace_back("after"); });
  f.sim.run(held + sim::ms(2));
  target->catch_up_ticks();
  EXPECT_EQ(ran.size(), before_stop);

  const sim::Time resumed_at = held + sim::ms(3);
  f.sim.schedule_at(resumed_at, [&] { session->detach(); });
  f.sim.run(resumed_at);
  ASSERT_EQ(target->state(), ProcState::Running);
  ASSERT_EQ(ran.size(), before_stop + 3);
  EXPECT_EQ(std::vector<std::string>(ran.end() - 3, ran.end()),
            (std::vector<std::string>{"before", "tick", "after"}));

  // The phase restarted at the resume.
  f.sim.run(resumed_at + 2 * kPeriod - 1);
  EXPECT_EQ(f.sim.now(), resumed_at + kPeriod);
  EXPECT_EQ(target->stats().utime_ms, before_stop + 2);
  f.sim.run(resumed_at + 2 * kPeriod);
  EXPECT_EQ(target->stats().utime_ms, before_stop + 3);

  // Exit between firings: the next firing is the clock's last.
  const sim::Time exit_at = resumed_at + 2 * kPeriod + sim::ms(1);
  f.sim.schedule_at(exit_at, [&] { target->exit(0); });
  f.sim.run();
  EXPECT_EQ(f.sim.now(), resumed_at + 3 * kPeriod);
  EXPECT_EQ(target->stats().utime_ms, before_stop + 3);
  f.sim.run(exit_at + 10 * kPeriod);
  EXPECT_EQ(f.sim.now(), resumed_at + 3 * kPeriod);
  EXPECT_EQ(ran.size(), before_stop + 5);
}

TEST(Tracing, AttachToDeadProcessFails) {
  Fixture f;
  Status result;
  auto victim = std::make_unique<Hooks>();
  victim->start = [](Process& self) { self.exit(0); };
  Pid dead = f.spawn_hooks(f.machine.compute_node(0), std::move(victim));
  f.sim.run(sim::ms(50));

  auto tracer = std::make_unique<Hooks>();
  tracer->start = [&](Process& self) {
    auto res = self.trace_attach(dead, [](const DebugEvent&) {});
    result = res.status;
  };
  f.spawn_hooks(f.machine.front_end(), std::move(tracer));
  f.sim.run();
  EXPECT_EQ(result.rc(), Rc::Edead);
}

TEST(Tracing, DoubleAttachRejected) {
  Fixture f;
  Status second;
  Pid target_pid = f.spawn_hooks(f.machine.compute_node(0),
                                 std::make_unique<Hooks>());
  auto tracer = std::make_unique<Hooks>();
  tracer->start = [&](Process& self) {
    ASSERT_TRUE(self.trace_attach(target_pid, [](const DebugEvent&) {}).is_ok());
    second = self.trace_attach(target_pid, [](const DebugEvent&) {}).status;
  };
  f.spawn_hooks(f.machine.front_end(), std::move(tracer));
  f.sim.run();
  EXPECT_EQ(second.rc(), Rc::Ebusy);
}

TEST(Tracing, ExitedTargetEmitsExitedEvent) {
  Fixture f;
  std::vector<DebugEventType> seen;
  auto tracer = std::make_unique<Hooks>();
  tracer->start = [&](Process& self) {
    auto tracee = std::make_unique<Hooks>();
    tracee->start = [](Process& me) {
      me.post(sim::ms(5), [&me] { me.exit(3); });
    };
    auto res = self.spawn_traced(std::move(tracee), {},
                                 [&](const DebugEvent& ev) {
                                   seen.push_back(ev.type);
                                   if (ev.type == DebugEventType::Exited) {
                                     EXPECT_EQ(ev.exit_code, 3);
                                   }
                                 });
    ASSERT_TRUE(res.is_ok());
  };
  f.spawn_hooks(f.machine.front_end(), std::move(tracer));
  f.sim.run();
  ASSERT_FALSE(seen.empty());
  EXPECT_EQ(seen.back(), DebugEventType::Exited);
}

TEST(Tracing, KillTargetTerminatesEvenWhenStopped) {
  Fixture f;
  Pid target_pid = f.spawn_hooks(f.machine.compute_node(0),
                                 std::make_unique<Hooks>());
  TraceSession* session = nullptr;
  auto tracer = std::make_unique<Hooks>();
  tracer->start = [&](Process& self) {
    auto res = self.trace_attach(target_pid, [&](const DebugEvent& ev) {
      if (ev.type == DebugEventType::Attached && session != nullptr) {
        session->kill_target();
      }
    });
    ASSERT_TRUE(res.is_ok());
    session = res.value;
  };
  f.spawn_hooks(f.machine.front_end(), std::move(tracer));
  f.sim.run();
  EXPECT_EQ(f.machine.find_process(target_pid)->state(), ProcState::Exited);
}

TEST(Tracing, ReadMissingSymbolReturnsEinval) {
  Fixture f;
  Status result;
  Pid target_pid = f.spawn_hooks(f.machine.compute_node(0),
                                 std::make_unique<Hooks>());
  auto tracer = std::make_unique<Hooks>();
  tracer->start = [&](Process& self) {
    auto res = self.trace_attach(target_pid, [](const DebugEvent&) {});
    ASSERT_TRUE(res.is_ok());
    res.value->read_symbol("NOPE", [&](Status st, Bytes) { result = st; });
  };
  f.spawn_hooks(f.machine.front_end(), std::move(tracer));
  f.sim.run();
  EXPECT_EQ(result.rc(), Rc::Einval);
}

}  // namespace
}  // namespace lmon::cluster
