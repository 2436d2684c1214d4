//===- e2ebench/harness.cpp - End-to-end refinement-check benchmark -------===//
//
// Runs complete refinement checks, from source text to a rendered verdict,
// as a closed loop: one client, one check outstanding at a time. Every
// verdict is compared with a reference that does not come from the checker.
// With --trace 1 the harness also replays each check through the public
// functions of each layer, recording one span per call, and derives the
// per-layer self times and counts from the replay.
//
// The harness is driven by run.py, which builds it and formats its result;
// see README.md for the workloads and metric definitions.
//
//===----------------------------------------------------------------------===//

#include "ProgramGenerator.h"
#include "core/Experiments.h"
#include "core/PaperExamples.h"
#include "core/Vm.h"
#include "ir/Compile.h"
#include "lang/PrettyPrint.h"
#include "memory/ModelRegistry.h"
#include "opt/PipelineSpec.h"
#include "refinement/RefinementChecker.h"
#include "refinement/Validate.h"
#include "semantics/AstInterp.h"
#include "support/Profiler.h"
#include "support/Rng.h"
#include "support/Telemetry.h"
#include "support/TestingHooks.h"
#include "tools/ToolSupport.h"
#include "tools/ValidatedOpt.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <memory>
#include <poll.h>
#include <set>
#include <signal.h>
#include <spawn.h>
#include <sstream>
#include <stdexcept>
#include <string>
#include <sys/resource.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

extern char **environ;

using namespace qcm;

namespace {

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::string num(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

uint64_t fnv1a(const std::string &S, uint64_t H = 1469598103934665603ull) {
  for (char C : S) {
    H ^= static_cast<unsigned char>(C);
    H *= 1099511628211ull;
  }
  return H;
}

//===----------------------------------------------------------------------===//
// Tracing: spans kept in memory, one buffer per thread slot
//===----------------------------------------------------------------------===//

enum SpanName : uint16_t {
  SpCheck,
  SpLangCompile,
  SpLangPrint,
  SpContexts,
  SpPlan,
  SpIrCompile,
  SpExplore,
  SpExec,
  SpMerge,
  SpSweep,
  SpSweepCell,
  SpReport,
  SpOptPipeline,
  SpOptValidated,
  NumSpanNames
};

const char *const SpanNames[NumSpanNames] = {
    "check",           "lang.compile",       "lang.print",
    "refinement.contexts", "refinement.plan", "ir.compile",
    "refinement.explore",  "semantics.exec",  "refinement.merge",
    "refinement.sweep",    "refinement.sweep_cell", "refinement.report",
    "opt.pipeline",        "opt.validated"};

struct SpanRec {
  uint64_t StartNs = 0, EndNs = 0;
  uint32_t Id = 0, Parent = 0, Check = 0;
  uint16_t Name = 0, Thread = 0;
};

/// Span store. Buffer 0 holds the calling thread's spans; the runs of
/// exploration slot W go to buffer W + 1, whichever thread the engine runs
/// the slot on. A slot is used by one thread at a time (the exploration
/// engine's slot contract), so buffers need no lock; ids come from one
/// atomic counter.
class Tracer {
public:
  uint32_t CurrentCheck = 0;

  uint32_t newId() { return NextId.fetch_add(1, std::memory_order_relaxed); }

  void record(SpanName Name, uint32_t Id, uint32_t Parent, unsigned Thread,
              uint64_t Start, uint64_t End) {
    SpanRec R;
    R.StartNs = Start;
    R.EndNs = End;
    R.Id = Id;
    R.Parent = Parent;
    R.Check = CurrentCheck;
    R.Name = Name;
    R.Thread = static_cast<uint16_t>(Thread);
    Buffers[Thread].push_back(R);
  }

  /// Sizes the per-thread buffers before an exploration fans out.
  void ensureThreads(unsigned N) {
    if (Buffers.size() < N + 1)
      Buffers.resize(N + 1);
  }

  std::vector<SpanRec> all() const {
    std::vector<SpanRec> Out;
    for (const auto &B : Buffers)
      Out.insert(Out.end(), B.begin(), B.end());
    return Out;
  }

  void clear() {
    for (auto &B : Buffers)
      B.clear();
  }

private:
  std::atomic<uint32_t> NextId{1};
  std::vector<std::vector<SpanRec>> Buffers = std::vector<std::vector<SpanRec>>(1);
};

Tracer TheTracer;

/// RAII span around one call into a layer.
class Span {
public:
  Span(SpanName Name, uint32_t Parent, unsigned Thread = 0)
      : Name(Name), Parent(Parent), Thread(Thread), Id(TheTracer.newId()),
        Start(nowNs()) {}
  ~Span() { TheTracer.record(Name, Id, Parent, Thread, Start, nowNs()); }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;
  uint32_t id() const { return Id; }

private:
  SpanName Name;
  uint32_t Parent;
  unsigned Thread;
  uint32_t Id;
  uint64_t Start;
};

/// Per-run counts: the semantics and memory layers of a replay.
struct RunCounts {
  uint64_t Runs = 0;
  uint64_t Steps = 0;
  uint64_t SwitchLoopRuns = 0;
  uint64_t CacheHits = 0;
  uint64_t BlocksTranslated = 0;
  uint64_t MemOps = 0;
  uint64_t Realizations = 0;
  uint64_t AllocFailures = 0;

  void add(const RunResult &R) {
    ++Runs;
    Steps += R.Steps;
    if (R.Dispatch.empty())
      ++SwitchLoopRuns;
    CacheHits += R.Dispatch.BlockCacheHits;
    BlocksTranslated += R.Dispatch.BlocksTranslated;
    MemOps += R.Stats.totalOperations();
    Realizations += R.Stats.Realizations;
    AllocFailures += R.Stats.AllocationFailures;
  }

  void add(const RunCounts &O) {
    Runs += O.Runs;
    Steps += O.Steps;
    SwitchLoopRuns += O.SwitchLoopRuns;
    CacheHits += O.CacheHits;
    BlocksTranslated += O.BlocksTranslated;
    MemOps += O.MemOps;
    Realizations += O.Realizations;
    AllocFailures += O.AllocFailures;
  }
};

/// Per-layer counts of a replay. Everything but the *Us fields and the
/// dispatch-cache fields is deterministic for a fixed seed.
struct Counts {
  uint64_t Checks = 0;
  uint64_t LangCompiles = 0;
  uint64_t IrCompiles = 0;
  RunCounts Exec;
  uint64_t GridCells = 0;
  uint64_t PoolJobs = 0;
  uint64_t Behaviors = 0;
  uint64_t InjectedRuns = 0;
  uint64_t ProbesFired = 0;
  uint64_t OptApplications = 0;
  uint64_t OptValidationRuns = 0;
  uint64_t WorkerBusyUs = 0;
  uint64_t MergeWaitUs = 0;
  /// Distinct (program, context, discipline) triples compiled.
  std::set<std::string> Modules;

  /// The counts that must repeat exactly for a fixed seed, as one line.
  std::string deterministicKey() const {
    std::string S;
    for (uint64_t V :
         {Checks, LangCompiles, IrCompiles, Exec.Runs, Exec.Steps,
          Exec.MemOps, Exec.Realizations, Exec.AllocFailures, GridCells,
          PoolJobs, Behaviors, InjectedRuns, ProbesFired, OptApplications,
          OptValidationRuns, static_cast<uint64_t>(Modules.size())})
      S += std::to_string(V) + ",";
    return S;
  }
};

void addPool(Counts &C, const PoolMetrics &P) {
  if (P.Jobs > 1)
    C.PoolJobs += P.Jobs;
  C.MergeWaitUs += P.MergeWaitUs;
  for (const WorkerMetrics &W : P.Workers)
    C.WorkerBusyUs += W.BusyUs;
}

std::string moduleKey(const std::string &ProgramKey, const ContextVariant &Ctx,
                      const RunConfig &Config) {
  return std::to_string(fnv1a(ProgramKey)) + "|" + Ctx.Name + "|" +
         std::to_string(fnv1a(Ctx.ContextSource)) + "|" +
         std::to_string(static_cast<int>(Config.Interp.Discipline));
}

//===----------------------------------------------------------------------===//
// Replay of checkRefinement / checkRefinementMatrix through public calls
//===----------------------------------------------------------------------===//

struct SweepOut {
  std::vector<Behavior> Fired;
  uint64_t Probes = 0, TimedOut = 0;
  bool Capped = false;
  RunCounts Exec;
};

/// Replays checkRefinement(Job): planRefinementGrid, the main grid through
/// ExecState::run and the in-order BehaviorSet merge, then the exhaustion
/// sweep through runSweepCellProbes. The assembled report must render
/// byte-identically to the checker's.
RefinementReport replayRefinement(const RefinementJob &Job, Counts &C,
                                  uint32_t Parent, const std::string &SrcKey,
                                  const std::string &TgtKey) {
  GridSchedule G;
  {
    Span S(SpPlan, Parent);
    const uint64_t Before = qir::compilationsPerformed();
    G = planRefinementGrid(Job);
    C.IrCompiles += qir::compilationsPerformed() - Before;
  }
  // The plan compiled every (program, instantiated context) pair once; the
  // same compiles are timed here so plan time can be split from IR time.
  for (size_t I = 0; I < G.PerContext.size(); ++I) {
    const GridSchedule::ContextSlot &Slot = G.PerContext[I];
    if (!Slot.SrcModule)
      continue;
    {
      Span S(SpIrCompile, Parent);
      qir::compileProgram(Slot.SrcInst ? *Slot.SrcInst : *Job.Src);
      qir::compileProgram(Slot.TgtInst ? *Slot.TgtInst : *Job.Tgt);
    }
    C.Modules.insert(moduleKey(SrcKey, G.Contexts[I], Job.BaseSrc));
    C.Modules.insert(moduleKey(TgtKey, G.Contexts[I], Job.BaseTgt));
  }

  RefinementReport Report;
  for (const GridSchedule::ContextSlot &Slot : G.PerContext)
    if (!Slot.Report.InstantiationError.empty())
      Report.Refines = false;

  const size_t N = G.Plan.Items.size();
  C.GridCells += N;
  std::vector<RunResult> Results(N);
  std::vector<ExecState> Slots(
      std::max<size_t>(1, std::min<size_t>(Job.Exec.effectiveJobs(), N)));
  TheTracer.ensureThreads(static_cast<unsigned>(Slots.size()));
  size_t LastMergedCtx = 0;
  ExplorationSummary Summary;
  {
    Span Explore(SpExplore, Parent);
    const uint32_t ExploreId = Explore.id();
    Summary = exploreIndexed(
        N, Job.Exec,
        [&](size_t I, unsigned Slot) {
          const ExplorationItem &Item = G.Plan.Items[I];
          RunConfig Config = Item.Config;
          if (Item.MakeHandlers)
            Config.Handlers = Item.MakeHandlers();
          Span S(SpExec, ExploreId, Slot + 1);
          Results[I] = Slots[Slot].run(Item.Module, Config);
        },
        [&](size_t I) {
          Span S(SpMerge, ExploreId);
          RunResult &R = Results[I];
          C.Exec.add(R);
          const GridSchedule::Origin &Origin = G.Origins[I];
          GridSchedule::ContextSlot &W = G.PerContext[Origin.ContextIdx];
          LastMergedCtx = Origin.ContextIdx;
          if (R.TimedOut) {
            ++W.Report.TimedOutRuns;
            ++Report.TimedOutRuns;
          }
          if (!Origin.IsTgt) {
            W.Report.SrcBehaviors.insert(std::move(R.Behav));
            return ExploreStep::Continue;
          }
          const bool Admitted = behaviorAdmitted(R.Behav, W.Report.SrcBehaviors);
          if (!Admitted && W.Report.Refines) {
            W.Report.Refines = false;
            W.Report.Counterexample = R.Behav;
            Report.Refines = false;
          }
          W.Report.TgtBehaviors.insert(std::move(R.Behav));
          return !Admitted && Job.Exec.FailFast ? ExploreStep::Stop
                                                : ExploreStep::Continue;
        });
  }
  Report.RunsPerformed = Summary.ItemsMerged;
  addPool(C, Summary.Pool);

  if (Job.ExhaustionSweep && !Summary.Cancelled) {
    Report.SweepRan = true;
    for (GridSchedule::ContextSlot &Slot : G.PerContext)
      if (Slot.Planned && Slot.Report.InstantiationError.empty() &&
          Slot.SrcModule)
        Slot.Report.SweepRan = true;
    std::vector<SweepCell> &Cells = G.SweepCells;
    std::vector<SweepOut> Outs(Cells.size());
    std::vector<ExecState> SweepSlots(std::max<size_t>(
        1, std::min<size_t>(Job.Exec.effectiveJobs(), Cells.size())));
    TheTracer.ensureThreads(static_cast<unsigned>(SweepSlots.size()));
    Span Sweep(SpSweep, Parent);
    const uint32_t SweepId = Sweep.id();
    ExplorationSummary SweepSummary = exploreIndexed(
        Cells.size(), Job.Exec,
        [&](size_t I, unsigned Slot) {
          const unsigned Thread = Slot + 1;
          Span CellSpan(SpSweepCell, SweepId, Thread);
          SweepOut &Out = Outs[I];
          // The probe runs happen inside runSweepCellProbes; each one is
          // the interval between consecutive probe callbacks.
          uint64_t Last = nowNs();
          SweepProbeSummary Sum = runSweepCellProbes(
              Cells[I], SweepSlots[Slot], Job.SweepMaxPointsPerCell,
              [&](uint64_t, RunResult &Probe) {
                TheTracer.record(SpExec, TheTracer.newId(), CellSpan.id(),
                                 Thread, Last, nowNs());
                if (Probe.TimedOut)
                  ++Out.TimedOut;
                if (sweepProbeFired(Probe))
                  Out.Fired.push_back(Probe.Behav);
                Out.Exec.add(Probe);
                Last = nowNs();
              });
          Out.Probes = Sum.Probes;
          Out.Capped = Sum.Capped;
        },
        [&](size_t I) {
          Span S(SpMerge, SweepId);
          const SweepCell &Cell = Cells[I];
          SweepOut &Out = Outs[I];
          GridSchedule::ContextSlot &W = G.PerContext[Cell.CtxIdx];
          C.Exec.add(Out.Exec);
          C.InjectedRuns += Out.Probes;
          C.ProbesFired += Out.Fired.size();
          Report.InjectedRuns += Out.Probes;
          Report.TimedOutRuns += Out.TimedOut;
          W.Report.TimedOutRuns += Out.TimedOut;
          if (Out.Capped)
            W.Report.SweepCapped = true;
          bool FailedHere = false;
          for (Behavior &B : Out.Fired) {
            if (!Cell.IsTgt) {
              W.Report.SrcInjectedPartials.insert(std::move(B));
              continue;
            }
            const bool Admitted =
                partialAdmittedStrict(B, W.Report.SrcInjectedPartials) ||
                partialAdmittedStrict(B, W.Report.SrcBehaviors);
            if (!Admitted && W.Report.SweepRefines) {
              W.Report.SweepRefines = false;
              W.Report.SweepCounterexample = B;
              Report.Refines = false;
              FailedHere = true;
            }
            W.Report.TgtInjectedPartials.insert(std::move(B));
          }
          return FailedHere && Job.Exec.FailFast ? ExploreStep::Stop
                                                 : ExploreStep::Continue;
        });
    addPool(C, SweepSummary.Pool);
  }

  size_t ReportedContexts = G.Contexts.size();
  if (Summary.Cancelled) {
    ReportedContexts = LastMergedCtx + 1;
  } else if (G.StoppedPlanning) {
    ReportedContexts = 0;
    for (size_t I = 0; I < G.Contexts.size(); ++I)
      if (G.PerContext[I].Planned)
        ReportedContexts = I + 1;
  }
  for (size_t I = 0; I < ReportedContexts; ++I) {
    ContextReport &CR = G.PerContext[I].Report;
    C.Behaviors += CR.SrcBehaviors.size() + CR.TgtBehaviors.size() +
                   CR.SrcInjectedPartials.size() +
                   CR.TgtInjectedPartials.size();
    Report.PerContext.push_back(std::move(CR));
  }
  return Report;
}

/// Replays checkRefinementMatrix(Base, Models) cell by cell.
MatrixReport replayMatrix(const RefinementJob &Base,
                          const std::vector<ModelKind> &Models, Counts &C,
                          uint32_t Parent, const std::string &SrcKey,
                          const std::string &TgtKey) {
  MatrixReport M;
  M.Models = Models;
  M.Cells.resize(Models.size() * Models.size());
  bool Stop = false;
  for (size_t S = 0; S < Models.size() && !Stop; ++S) {
    for (size_t T = 0; T < Models.size() && !Stop; ++T) {
      MatrixCell &Cell = M.Cells[S * Models.size() + T];
      Cell.SrcModel = Models[S];
      Cell.TgtModel = Models[T];
      RefinementJob Job = Base;
      Job.BaseSrc.Model = Cell.SrcModel;
      Job.BaseTgt.Model = Cell.TgtModel;
      Cell.Report = replayRefinement(Job, C, Parent, SrcKey, TgtKey);
      Cell.Ran = true;
      M.RunsPerformed += Cell.Report.RunsPerformed;
      M.TimedOutRuns += Cell.Report.TimedOutRuns;
      M.SweepRan |= Cell.Report.SweepRan;
      M.InjectedRuns += Cell.Report.InjectedRuns;
      if (!Cell.Report.Refines) {
        M.Refines = false;
        if (Base.Exec.FailFast)
          Stop = true;
      }
    }
  }
  if (Stop)
    M.Refines = false;
  return M;
}

/// Vm::compile with a span; throws on a compile error (inputs are fixed).
Program compileTraced(const std::string &Text, uint32_t Parent, Counts &C) {
  Span S(SpLangCompile, Parent);
  Vm V;
  std::optional<Program> P = V.compile(Text);
  ++C.LangCompiles;
  if (!P)
    throw std::runtime_error("compile failed: " + V.lastDiagnostics());
  return std::move(*P);
}

Program compileOrThrow(const std::string &Text) {
  Vm V;
  std::optional<Program> P = V.compile(Text);
  if (!P)
    throw std::runtime_error("compile failed: " + V.lastDiagnostics());
  return std::move(*P);
}

/// Contexts exactly as qcm-check builds them: the empty context, then the
/// standard adversary battery over the source's parameterless externs.
std::vector<ContextVariant> toolContexts(const Program &Src) {
  std::vector<ContextVariant> Ctx{ContextVariant::empty()};
  for (ContextVariant &C : standardAdversaryContexts(Src))
    Ctx.push_back(std::move(C));
  return Ctx;
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

struct Outcome {
  /// False when the check produced no verdict: an exception, an unexpected
  /// exit code, a signal, or a timeout.
  bool Verdict = false;
  /// Empty when the verdict matches the reference; the mismatch otherwise.
  std::string Wrong;
  /// The rendered output the replay must reproduce byte for byte.
  std::string Rendered;
  /// Peak RSS of the process that did the check, in kB (children only).
  long ChildMaxRssKb = 0;
};

class Workload {
public:
  virtual ~Workload() = default;
  /// Builds the inputs from the seed (generation, file loading) and fills
  /// Order.
  virtual void setup(uint64_t Seed) = 0;
  /// Inputs in the corpus.
  virtual size_t size() const = 0;
  /// Whether a timed phase ends only at a round boundary. The small fixed
  /// corpora do, so every run sees the same latency mix; a generated
  /// corpus is too large for whole rounds to fit a run's time.
  virtual bool wholeRounds() const { return true; }
  /// One untraced check of input \p Index, verdict checked against the
  /// reference.
  virtual Outcome check(size_t Index) = 0;
  /// One traced replay of input \p Index; returns its rendering.
  virtual std::string replay(size_t Index, uint32_t Parent, Counts &C) = 0;
  /// Reference checks over the first \p Visited inputs of Order, run once
  /// after timing; "" when all pass.
  virtual std::string crossCheck(size_t) { return ""; }
  /// The order the loops visit inputs in.
  std::vector<size_t> Order;
  /// A digest of the generated inputs and their order.
  uint64_t Digest = 0;
};

std::vector<size_t> shuffledOrder(size_t N, uint64_t Seed) {
  std::vector<size_t> Order(N);
  for (size_t I = 0; I < N; ++I)
    Order[I] = I;
  Rng Gen(Seed ^ 0x0bde5ull);
  for (size_t I = N; I > 1; --I)
    std::swap(Order[I - 1], Order[Gen.nextBelow(I)]);
  return Order;
}

//--- cli ---------------------------------------------------------------------

struct SpawnResult {
  bool Started = false;
  bool TimedOut = false;
  int Status = 0;
  long MaxRssKb = 0;
  std::string Stdout;
};

/// Spawns \p Argv with stdout captured and stderr discarded, waits for it,
/// and reports its status and peak RSS. Kills it after \p TimeoutMs.
SpawnResult spawnCapture(const std::vector<std::string> &Argv,
                         int TimeoutMs = 60000) {
  SpawnResult Res;
  int Pipe[2];
  if (::pipe2(Pipe, O_CLOEXEC) != 0)
    return Res;
  posix_spawn_file_actions_t Actions;
  posix_spawn_file_actions_init(&Actions);
  posix_spawn_file_actions_adddup2(&Actions, Pipe[1], 1);
  posix_spawn_file_actions_addopen(&Actions, 2, "/dev/null", O_WRONLY, 0);
  std::vector<char *> Args;
  for (const std::string &A : Argv)
    Args.push_back(const_cast<char *>(A.c_str()));
  Args.push_back(nullptr);
  pid_t Pid = 0;
  int Err = posix_spawn(&Pid, Args[0], &Actions, nullptr, Args.data(), environ);
  posix_spawn_file_actions_destroy(&Actions);
  ::close(Pipe[1]);
  if (Err != 0) {
    ::close(Pipe[0]);
    return Res;
  }
  Res.Started = true;
  const uint64_t Deadline = nowNs() + static_cast<uint64_t>(TimeoutMs) * 1000000;
  char Buf[65536];
  for (;;) {
    const uint64_t Now = nowNs();
    if (Now >= Deadline) {
      Res.TimedOut = true;
      ::kill(Pid, SIGKILL);
      break;
    }
    pollfd P{Pipe[0], POLLIN, 0};
    int Ready = ::poll(&P, 1, static_cast<int>((Deadline - Now) / 1000000) + 1);
    if (Ready < 0 && errno != EINTR)
      break;
    if (Ready <= 0)
      continue;
    ssize_t N = ::read(Pipe[0], Buf, sizeof(Buf));
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      break;
    Res.Stdout.append(Buf, static_cast<size_t>(N));
  }
  ::close(Pipe[0]);
  struct rusage Usage;
  std::memset(&Usage, 0, sizeof(Usage));
  while (::wait4(Pid, &Res.Status, 0, &Usage) < 0 && errno == EINTR) {
  }
  Res.MaxRssKb = Usage.ru_maxrss;
  return Res;
}

class CliWorkload : public Workload {
public:
  CliWorkload(std::string Root, std::string BinDir, std::string Expected,
              unsigned Jobs)
      : Root(std::move(Root)), BinDir(std::move(BinDir)),
        ExpectedPath(std::move(Expected)), Jobs(Jobs) {}

  void setup(uint64_t Seed) override {
    std::string Text, Error;
    if (!qcm_tools::readFile(ExpectedPath, Text, Error))
      throw std::runtime_error(Error);
    Invocations.clear();
    std::istringstream Lines(Text);
    std::string Line;
    while (std::getline(Lines, Line)) {
      if (Line.empty() || Line[0] == '#')
        continue;
      // <program> | <mode> | <exit code> | <verdict>
      std::vector<std::string> Fields;
      std::string Field;
      std::istringstream F(Line);
      while (std::getline(F, Field, '|')) {
        size_t B = Field.find_first_not_of(' '), E = Field.find_last_not_of(' ');
        Fields.push_back(B == std::string::npos ? ""
                                                : Field.substr(B, E - B + 1));
      }
      if (Fields.size() != 4)
        throw std::runtime_error("malformed expected line: " + Line);
      Invocation Inv;
      Inv.File = Root + "/examples/programs/" + Fields[0];
      Inv.Mode = Fields[1];
      Inv.ExpectedExit = std::stoi(Fields[2]);
      Inv.ExpectedVerdict = Fields[3];
      if (!qcm_tools::readFile(Inv.File, Inv.Text, Error))
        throw std::runtime_error(Error);
      // The two rules the expected file must encode: a program checked
      // against itself under one model refines, and every matrix's
      // diagonal refines (checked on each output in verify()).
      if (Inv.Mode == "one" &&
          (Inv.ExpectedExit != 0 || Inv.ExpectedVerdict != "REFINES"))
        throw std::runtime_error("expected file breaks the self-refinement "
                                 "rule: " + Line);
      Inv.Argv = argvFor(Inv);
      if (Inv.Argv.empty())
        throw std::runtime_error("unknown mode in expected file: " + Line);
      Invocations.push_back(std::move(Inv));
    }
    if (Invocations.empty())
      throw std::runtime_error("no invocations in " + ExpectedPath);
    Order = shuffledOrder(Invocations.size(), Seed);
    Digest = 0;
    for (size_t I : Order)
      Digest = fnv1a(Invocations[I].Text + Invocations[I].Mode, Digest + I);
  }

  size_t size() const override { return Invocations.size(); }

  Outcome check(size_t Index) override {
    const Invocation &Inv = Invocations[Index];
    Outcome O;
    SpawnResult R = spawnCapture(Inv.Argv);
    O.ChildMaxRssKb = R.MaxRssKb;
    if (!R.Started || R.TimedOut || !WIFEXITED(R.Status))
      return O;
    const int Exit = WEXITSTATUS(R.Status);
    if (Exit != 0 && Exit != 1)
      return O;
    O.Verdict = true;
    O.Rendered = std::move(R.Stdout);
    std::string Verdict = normalizedVerdict(Inv, O.Rendered);
    if (Exit != Inv.ExpectedExit || Verdict != Inv.ExpectedVerdict)
      O.Wrong = Inv.Mode + " " + Inv.File + ": exit " + std::to_string(Exit) +
                " verdict '" + Verdict + "', expected exit " +
                std::to_string(Inv.ExpectedExit) + " verdict '" +
                Inv.ExpectedVerdict + "'";
    else if (Inv.Mode != "one" && Inv.Mode != "opt" &&
             !diagonalRefines(O.Rendered))
      O.Wrong = Inv.Mode + " " + Inv.File + ": matrix diagonal does not refine";
    return O;
  }

  std::string replay(size_t Index, uint32_t Parent, Counts &C) override {
    const Invocation &Inv = Invocations[Index];
    if (Inv.Mode == "opt")
      return replayOpt(Inv, Parent, C);
    // qcm-check: both programs, the tool's contexts and options, then the
    // single check or the matrix, then the rendered report.
    Program Src = compileTraced(Inv.Text, Parent, C);
    Program Tgt = compileTraced(Inv.Text, Parent, C);
    qcm_tools::CommandLine Cmd;
    std::vector<char *> Args;
    for (const std::string &A : Inv.Argv)
      Args.push_back(const_cast<char *>(A.c_str()));
    std::string Error;
    if (!Cmd.parse(static_cast<int>(Args.size()), Args.data(), Error))
      throw std::runtime_error("replay: " + Error);
    RefinementJob Job;
    Job.Src = &Src;
    Job.Tgt = &Tgt;
    if (!Cmd.applyRunOptions(Job.BaseSrc, Error) ||
        !Cmd.applyExplorationOptions(Job.Exec, Error))
      throw std::runtime_error("replay: " + Error);
    Job.ExhaustionSweep = Cmd.has("sweep");
    Job.BaseTgt = Job.BaseSrc;
    {
      Span S(SpContexts, Parent);
      Job.Contexts = toolContexts(Src);
    }
    if (Cmd.has("models")) {
      std::vector<ModelKind> Models(allModelKinds().begin(),
                                    allModelKinds().end());
      MatrixReport M = replayMatrix(Job, Models, C, Parent, Inv.Text, Inv.Text);
      Span S(SpReport, Parent);
      return M.toString();
    }
    RefinementReport R = replayRefinement(Job, C, Parent, Inv.Text, Inv.Text);
    Span S(SpReport, Parent);
    return R.toString();
  }

private:
  struct Invocation {
    std::string File, Mode, Text, ExpectedVerdict;
    int ExpectedExit = 0;
    std::vector<std::string> Argv;
  };

  static const char *optPipeline() { return "ownership,constprop,fix(arith,dce)"; }

  std::vector<std::string> argvFor(const Invocation &Inv) const {
    const std::string Check = BinDir + "/qcm-check";
    if (Inv.Mode == "one")
      return {Check, "--model=quasi", Inv.File, Inv.File};
    if (Inv.Mode == "all")
      return {Check, "--models=all", Inv.File, Inv.File};
    if (Inv.Mode == "sweep")
      return {Check, "--models=all", "--sweep", Inv.File, Inv.File};
    if (Inv.Mode == "sweep-jobs")
      return {Check, "--models=all", "--sweep",
              "--jobs=" + std::to_string(Jobs), Inv.File, Inv.File};
    if (Inv.Mode == "opt")
      return {BinDir + "/qcm-opt", std::string("--pipeline=") + optPipeline(),
              "--validate=all", Inv.File};
    return {};
  }

  /// The verdict a reader takes from the output: the headline before its
  /// counters, plus the refining-cell count for a matrix. qcm-opt prints
  /// the optimized program; its verdict is that the output compiles.
  static std::string normalizedVerdict(const Invocation &Inv,
                                       const std::string &Out) {
    if (Inv.Mode == "opt") {
      Vm V;
      return !Out.empty() && V.compile(Out) ? "OPTIMIZED" : "NO PROGRAM";
    }
    std::istringstream Lines(Out);
    std::string Line;
    while (std::getline(Lines, Line)) {
      if (Inv.Mode == "one" || Line.rfind("MATRIX ", 0) == 0) {
        size_t Paren = Line.find(" (");
        std::string Head = Line.substr(0, Paren);
        if (Inv.Mode != "one" && Paren != std::string::npos) {
          size_t Cells = Line.find(" cells refine", Paren);
          if (Cells != std::string::npos)
            Head += " " + Line.substr(Paren + 2, Cells - Paren - 2);
        }
        return Head;
      }
    }
    return "";
  }

  /// The diagonal of the rendered verdict table: "ok" at (i, i).
  static bool diagonalRefines(const std::string &Out) {
    std::istringstream Lines(Out);
    std::string Line;
    std::getline(Lines, Line); // title
    std::getline(Lines, Line); // header
    const size_t N = allModelKinds().size();
    for (size_t Row = 0; Row < N; ++Row) {
      if (!std::getline(Lines, Line))
        return false;
      std::istringstream Tok(Line);
      std::vector<std::string> Cells;
      std::string T;
      while (Tok >> T)
        Cells.push_back(T);
      if (Cells.size() != N + 1 || Cells[Row + 1] != "ok")
        return false;
    }
    return true;
  }

  std::string replayOpt(const Invocation &Inv, uint32_t Parent, Counts &C) {
    Program Prog = compileTraced(Inv.Text, Parent, C);
    std::string Error;
    qcm_tools::ValidatedOptOptions Opts;
    std::optional<PipelineSpec> Spec = PipelineSpec::parse(optPipeline(), Error);
    if (!Spec)
      throw std::runtime_error("replay: " + Error);
    Opts.Spec = *Spec;
    Opts.Models.assign(allModelKinds().begin(), allModelKinds().end());
    {
      // The pipeline alone, unvalidated, on a copy of the program.
      Span S(SpOptPipeline, Parent);
      Program Copy = Prog.clone();
      std::optional<PassPipeline> P =
          buildPipeline(Opts.Spec, Opts.Factory, Error, Opts.DefaultFixIterations);
      if (!P)
        throw std::runtime_error("replay: " + Error);
      P->run(Copy);
    }
    std::optional<qcm_tools::ValidatedOptResult> R;
    {
      Span S(SpOptValidated, Parent);
      R = qcm_tools::runValidatedPipeline(Prog, Opts, Error);
    }
    if (!R)
      throw std::runtime_error("replay: " + Error);
    C.OptApplications += R->Pipeline.Applications.size();
    C.OptValidationRuns += R->ValidationRuns;
    if (R->Pipeline.Failed)
      return "validation rejected";
    Span S(SpLangPrint, Parent);
    return printProgram(Prog);
  }

  std::string Root, BinDir, ExpectedPath;
  unsigned Jobs;
  std::vector<Invocation> Invocations;
};

//--- paper_matrix ------------------------------------------------------------

/// The paper's headline table: one check runs all experimentMatrix() cells
/// through runExperiment, in a seeded order, and renders every row.
class PaperMatrixWorkload : public Workload {
public:
  void setup(uint64_t Seed) override {
    const std::vector<ExperimentSpec> &M = experimentMatrix();
    Cells = shuffledOrder(M.size(), Seed);
    Order = {0};
    Digest = 0;
    for (size_t I : Cells)
      Digest = fnv1a(M[I].ExampleId + "/" + M[I].ScenarioName, Digest + I);
  }

  size_t size() const override { return 1; }

  Outcome check(size_t) override {
    Outcome O;
    for (size_t I : Cells) {
      const ExperimentSpec &Spec = experimentMatrix()[I];
      ExperimentOutcome E = runExperiment(Spec);
      O.Rendered += E.Report.toString() + formatExperimentRow(E) + "\n";
      // The paper's verdict (EXPERIMENTS.md section 1), not the checker's.
      if (E.MeasuredRefines != Spec.PaperRefines)
        O.Wrong = Spec.ExampleId + " " + Spec.ScenarioName +
                  ": measured differs from the paper";
    }
    O.Verdict = true;
    return O;
  }

  std::string replay(size_t, uint32_t Parent, Counts &C) override {
    std::string Rendered;
    for (size_t I : Cells)
      Rendered += replayCell(experimentMatrix()[I], Parent, C);
    return Rendered;
  }

private:
  std::string replayCell(const ExperimentSpec &Spec, uint32_t Parent,
                         Counts &C) {
    const PaperExample &Ex = getPaperExample(Spec.ExampleId);
    Program Src = compileTraced(Ex.SrcSource, Parent, C);
    Program Tgt = compileTraced(Ex.TgtSource, Parent, C);
    auto MakeConfig = [&](ModelKind Model) {
      RunConfig Config;
      Config.Model = Model;
      Config.MemConfig.AddressWords = Spec.AddressWords;
      Config.Interp.Discipline = Spec.Discipline;
      Config.LogicalCasts = Spec.Casts;
      Config.Entry = Ex.Entry;
      Config.Args = Ex.Args;
      return Config;
    };
    RefinementJob Job;
    Job.Src = &Src;
    Job.Tgt = &Tgt;
    Job.BaseSrc = MakeConfig(Spec.SrcModel);
    Job.BaseTgt = MakeConfig(Spec.TgtModel);
    Job.Contexts = Spec.Contexts;
    Job.Oracles = Spec.Oracles;
    ExperimentOutcome E;
    E.Spec = &Spec;
    E.Report = replayRefinement(Job, C, Parent, Ex.SrcSource, Ex.TgtSource);
    E.MeasuredRefines = E.Report.Refines;
    E.MatchesPaper = E.MeasuredRefines == Spec.PaperRefines;
    Span S(SpReport, Parent);
    return E.Report.toString() + formatExperimentRow(E) + "\n";
  }

  std::vector<size_t> Cells;
};

//--- generated programs: sweep_matrix and oracle_grid -------------------------

/// Seeded generated programs, each checked against itself.
class GeneratedWorkload : public Workload {
public:
  GeneratedWorkload(bool Sweep, unsigned RandomOracles, unsigned Jobs)
      : Sweep(Sweep), RandomOracles(RandomOracles), Jobs(Jobs) {}

  void setup(uint64_t Seed) override {
    Texts.clear();
    Digest = 0;
    for (unsigned I = 0; I < Programs; ++I) {
      qcm_test::ProgramGenerator Gen(Seed * 1000003ull + I, shape());
      Texts.push_back(Gen.generate());
      Digest = fnv1a(Texts.back(), Digest);
    }
    Order.resize(Texts.size());
    for (size_t I = 0; I < Order.size(); ++I)
      Order[I] = I;
    OracleSeed = Seed * 7919ull + 1;
    Oracles = sampledOracles(RandomOracles, OracleSeed);
  }

  size_t size() const override { return Texts.size(); }
  bool wholeRounds() const override { return false; }

  /// Straight-line-and-loop programs without calls: their check costs
  /// cluster (the generator's default call chains multiply loop trips,
  /// which spreads one check's cost over two orders of magnitude), so the
  /// latency percentiles of one run do not hinge on the few costliest
  /// programs a seed happens to draw.
  static qcm_test::GeneratorConfig shape() {
    qcm_test::GeneratorConfig Config;
    Config.NumFunctions = 0;
    Config.StatementsPerFunction = 12;
    Config.MaxLoopTrips = 4;
    return Config;
  }

  RefinementJob baseJob(const Program &Src, const Program &Tgt) const {
    RefinementJob Job;
    Job.Src = &Src;
    Job.Tgt = &Tgt;
    Job.ExhaustionSweep = Sweep;
    Job.Exec.Jobs = Sweep ? 1 : Jobs;
    if (!Sweep)
      Job.Oracles = Oracles;
    return Job;
  }

  Outcome check(size_t I) override {
    Outcome O;
    Program Src = compileOrThrow(Texts[I]);
    Program Tgt = compileOrThrow(Texts[I]);
    RefinementJob Job = baseJob(Src, Tgt);
    Job.Contexts = toolContexts(Src);
    if (Sweep) {
      std::vector<ModelKind> Models(allModelKinds().begin(),
                                    allModelKinds().end());
      MatrixReport M = checkRefinementMatrix(Job, Models);
      O.Rendered = M.toString();
      // A program checked against itself refines under every model.
      for (size_t K = 0; K < Models.size(); ++K)
        if (!M.Cells[K * Models.size() + K].Report.Refines)
          O.Wrong = "program " + std::to_string(I) + ": " +
                    modelDescriptor(Models[K]).ShortName +
                    " self-check does not refine";
    } else {
      RefinementReport R = checkRefinement(Job);
      O.Rendered = R.toString();
      if (!R.Refines)
        O.Wrong = "program " + std::to_string(I) + ": self-check does not refine";
    }
    O.Verdict = true;
    return O;
  }

  std::string replay(size_t I, uint32_t Parent, Counts &C) override {
    Program Src = compileTraced(Texts[I], Parent, C);
    Program Tgt = compileTraced(Texts[I], Parent, C);
    RefinementJob Job = baseJob(Src, Tgt);
    {
      Span S(SpContexts, Parent);
      Job.Contexts = toolContexts(Src);
    }
    if (Sweep) {
      std::vector<ModelKind> Models(allModelKinds().begin(),
                                    allModelKinds().end());
      MatrixReport M = replayMatrix(Job, Models, C, Parent, Texts[I], Texts[I]);
      Span S(SpReport, Parent);
      return M.toString();
    }
    RefinementReport R = replayRefinement(Job, C, Parent, Texts[I], Texts[I]);
    Span S(SpReport, Parent);
    return R.toString();
  }

  /// The check's sampled base runs against the AST walker, an independent
  /// engine: same behaviour, same step count.
  std::string crossCheck(size_t Visited) override {
    std::vector<ModelKind> Models;
    if (Sweep)
      Models.assign(allModelKinds().begin(), allModelKinds().end());
    else
      Models.push_back(ModelKind::QuasiConcrete);
    std::vector<OracleFactory> Sampled = sampledOracles(2, OracleSeed);
    for (size_t Pos = 0; Pos < std::min(Visited, Order.size()); ++Pos) {
      const size_t I = Order[Pos];
      Program P = compileOrThrow(Texts[I]);
      std::shared_ptr<const qir::QirModule> Module = qir::compileProgram(P);
      for (ModelKind Model : Models) {
        for (size_t K = 0; K < Sampled.size(); ++K) {
          RunConfig Config;
          Config.Model = Model;
          Config.Oracle = Sampled[K];
          RunResult Fast = runCompiled(Module, Config);
          RunResult Ref = runAstProgram(P, Config);
          if (Fast.Behav.toString() != Ref.Behav.toString() ||
              Fast.Steps != Ref.Steps)
            return "program " + std::to_string(I) + " under " +
                   modelDescriptor(Model).ShortName + ", oracle " +
                   std::to_string(K) + ": checker run '" +
                   Fast.Behav.toString() + "' in " +
                   std::to_string(Fast.Steps) + " steps, AST walker '" +
                   Ref.Behav.toString() + "' in " + std::to_string(Ref.Steps) +
                   " steps";
        }
      }
    }
    return "";
  }

private:
  bool Sweep;
  /// Enough programs that a run checks each only a few times, so its
  /// percentiles sample the seed's whole cost distribution.
  static constexpr unsigned Programs = 4096;
  unsigned RandomOracles, Jobs;
  uint64_t OracleSeed = 0;
  std::vector<std::string> Texts;
  std::vector<OracleFactory> Oracles;
};

//===----------------------------------------------------------------------===//
// Measurement
//===----------------------------------------------------------------------===//

struct Options {
  std::string Workload, Root, BinDir, Expected, OutPath, SpansPath;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  unsigned Jobs = 0;
};

std::unique_ptr<Workload> makeWorkload(const Options &O) {
  if (O.Workload == "cli")
    return std::make_unique<CliWorkload>(O.Root, O.BinDir, O.Expected, O.Jobs);
  if (O.Workload == "paper_matrix")
    return std::make_unique<PaperMatrixWorkload>();
  if (O.Workload == "sweep_matrix")
    return std::make_unique<GeneratedWorkload>(true, 0, O.Jobs);
  // Enough sampled oracles that every grid (2 sides x 514 oracles) exceeds
  // the 1024-item inline threshold, so the thread pool runs.
  if (O.Workload == "oracle_grid")
    return std::make_unique<GeneratedWorkload>(false, 512, O.Jobs);
  return nullptr;
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  const size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

struct Tally {
  uint64_t Attempted = 0, Failed = 0, Wrong = 0;
  std::vector<std::string> Errors;
  long MaxChildRssKb = 0;

  void note(const std::string &E) {
    if (Errors.size() < 8)
      Errors.push_back(E);
  }
};

/// Runs one check and books it in \p T; leaves its outcome in \p O and
/// returns its latency in ns.
uint64_t bookedCheck(Workload &W, size_t Index, Tally &T, Outcome &O) {
  ++T.Attempted;
  const uint64_t Start = nowNs();
  try {
    O = W.check(Index);
  } catch (const std::exception &E) {
    T.note(std::string("exception: ") + E.what());
  }
  const uint64_t Elapsed = nowNs() - Start;
  T.MaxChildRssKb = std::max(T.MaxChildRssKb, O.ChildMaxRssKb);
  if (!O.Verdict) {
    ++T.Failed;
    T.note("no verdict for input " + std::to_string(Index));
  } else if (!O.Wrong.empty()) {
    ++T.Wrong;
    T.note(O.Wrong);
  }
  return Elapsed;
}

uint64_t timedCheck(Workload &W, size_t Index, Tally &T) {
  Outcome O;
  return bookedCheck(W, Index, T, O);
}

struct Phase {
  std::vector<double> LatenciesMs;
  double WallS = 0;
};

/// Whether a loop that has visited \p Done inputs may stop once its time is
/// up.
bool mayStop(const Workload &W, uint64_t Done) {
  return Done > 0 && (!W.wholeRounds() || Done % W.size() == 0);
}

/// The closed loop: the next check starts when the previous one finished,
/// until \p Seconds elapse.
Phase runUntraced(Workload &W, double Seconds, Tally &T) {
  Phase P;
  const uint64_t Start = nowNs();
  const uint64_t Budget = static_cast<uint64_t>(Seconds * 1e9);
  for (uint64_t Pos = 0; !(mayStop(W, Pos) && nowNs() - Start >= Budget);
       ++Pos)
    P.LatenciesMs.push_back(timedCheck(W, W.Order[Pos % W.size()], T) / 1e6);
  P.WallS = (nowNs() - Start) / 1e9;
  return P;
}

struct Field {
  std::string Name, Unit;
  double Value = 0;
  uint64_t Samples = 0;
  std::string Extra; // extra JSON members, already rendered
};

std::string renderFields(const std::vector<Field> &Fields) {
  std::string S = "{";
  for (size_t I = 0; I < Fields.size(); ++I) {
    const Field &F = Fields[I];
    S += (I ? "," : "") + std::string("\"") + F.Name + "\":{\"value\":" +
         num(F.Value) + ",\"unit\":\"" + F.Unit +
         "\",\"samples\":" + std::to_string(F.Samples) + F.Extra + "}";
  }
  return S + "}";
}

/// End-to-end metrics of one untraced phase.
/// The highest percentile with at least ten samples beyond it: the
/// eleventh-largest latency, at percentile 100 (N - 10) / N.
std::pair<double, double> tailOf(std::vector<double> L) {
  std::sort(L.begin(), L.end());
  const size_t N = L.size();
  if (N <= 10)
    return {N ? L.back() : 0, 0};
  return {L[N - 11], 100.0 * static_cast<double>(N - 10) / N};
}

/// The tail is taken in windows of this many consecutive checks and is the
/// median of their per-window tails. A burst of outside load that spoils
/// less than half the windows then moves it not at all. A fixed count also
/// pins the tail at the same percentile (p90) however fast the program is;
/// at p90, stalls of the host, which hit 1-4% of checks, stay beyond the
/// tail instead of setting it. A final partial window is dropped, unless the
/// phase has no full window.
constexpr size_t WindowChecks = 100;

/// Set-ups per untraced run; setup_s is their median.
constexpr unsigned SetupRepeats = 11;

std::vector<Field> endToEnd(const Phase &P, const std::vector<double> &SetupS,
                            const Tally &T, bool Children) {
  std::vector<Field> F;
  F.push_back({"setup_s", "s", median(SetupS), SetupS.size(), ""});
  const size_t N = P.LatenciesMs.size();
  const size_t PerWindow = std::max<size_t>(1, std::min(N, WindowChecks));
  const size_t Windows = std::max<size_t>(1, N / PerWindow);
  std::vector<std::pair<double, double>> Tails;
  for (size_t K = 0; K < Windows; ++K) {
    const size_t Begin = K * PerWindow, End = std::min(N, Begin + PerWindow);
    if (End == Begin)
      break;
    Tails.push_back(tailOf(std::vector<double>(P.LatenciesMs.begin() + Begin,
                                               P.LatenciesMs.begin() + End)));
  }
  std::sort(Tails.begin(), Tails.end());
  // The shared host runs this thread at a fast or a slow speed, switching
  // every second or so, and the share of time spent slow drifts over
  // minutes. The fifth percentile stays at the fast speed unless all but a
  // twentieth of a run is slow, so it follows the program, not that share;
  // the median and the throughput follow the share.
  std::vector<double> Sorted = P.LatenciesMs;
  std::sort(Sorted.begin(), Sorted.end());
  F.push_back({"check_p5_ms", "ms", N ? Sorted[(N - 1) / 20] : 0, N, ""});
  F.push_back({"check_p50_ms", "ms", median(Sorted), N, ""});
  const std::pair<double, double> Tail = Tails[Tails.size() / 2];
  F.push_back({"check_tail_ms", "ms", Tail.first, N,
               ",\"percentile\":" + num(Tail.second) +
                   ",\"windows\":" + std::to_string(Windows)});
  F.push_back({"checks_per_s", "1/s", P.WallS > 0 ? N / P.WallS : 0, N, ""});
  // In process: this process's VmHWM. For cli: each child's ru_maxrss,
  // which Linux floors at the harness's own peak, because a spawned child
  // starts in the harness's address space until it executes the tool.
  const double RssMb = Children ? T.MaxChildRssKb / 1024.0
                                : prof::peakRssBytes() / (1024.0 * 1024.0);
  F.push_back({"peak_rss_mb", "MB", RssMb,
               Children ? T.Attempted : 1, ""});
  F.push_back({"failed_frac", "ratio",
               T.Attempted ? static_cast<double>(T.Failed) / T.Attempted : 0,
               T.Attempted, ""});
  F.push_back({"wrong_verdicts", "count", static_cast<double>(T.Wrong),
               T.Attempted, ""});
  return F;
}

/// Adds each span's self time, in microseconds, to \p SelfUs by span name:
/// its duration minus the union of its children's intervals (clipped to
/// it). \p Spans are the spans of one check.
void addSelfTimes(std::vector<SpanRec> Spans, double *SelfUs) {
  std::sort(Spans.begin(), Spans.end(),
            [](const SpanRec &A, const SpanRec &B) { return A.Id < B.Id; });
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> Kids(Spans.size());
  for (const SpanRec &S : Spans) {
    auto It = std::lower_bound(
        Spans.begin(), Spans.end(), S.Parent,
        [](const SpanRec &R, uint32_t Id) { return R.Id < Id; });
    if (It != Spans.end() && It->Id == S.Parent)
      Kids[It - Spans.begin()].push_back({S.StartNs, S.EndNs});
  }
  for (size_t I = 0; I < Spans.size(); ++I) {
    const SpanRec &P = Spans[I];
    auto &K = Kids[I];
    std::sort(K.begin(), K.end());
    uint64_t Covered = 0, CurS = 0, CurE = 0;
    bool Open = false;
    for (auto [S, E] : K) {
      S = std::max(S, P.StartNs);
      E = std::min(E, P.EndNs);
      if (E <= S)
        continue;
      if (Open && S <= CurE) {
        CurE = std::max(CurE, E);
        continue;
      }
      if (Open)
        Covered += CurE - CurS;
      CurS = S;
      CurE = E;
      Open = true;
    }
    if (Open)
      Covered += CurE - CurS;
    const uint64_t Dur = P.EndNs - P.StartNs;
    SelfUs[P.Name] += (Dur > Covered ? Dur - Covered : 0) / 1e3;
  }
}

std::string stampJson(const Options &O, unsigned Jobs) {
  std::string S = "{";
  S += "\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
  S += ",\"compiler\":\"" + jsonEscape(std::string("gcc ") + __VERSION__) + "\"";
  S += ",\"build_type\":\"" + jsonEscape(QCM_BUILD_TYPE) + "\"";
  S += ",\"cxx_flags\":\"" + jsonEscape(QCM_CXX_FLAGS) + "\"";
  S += ",\"testing_hooks\":" + std::string(QCM_TESTING_HOOKS ? "true" : "false");
  S += ",\"profiler_compiled_in\":" +
       std::string(QCM_PROFILE_ENABLED ? "true" : "false");
  S += ",\"threaded_dispatch\":" +
       std::string(QCM_THREADED_DISPATCH_ACTIVE ? "true" : "false");
  S += ",\"seed\":" + std::to_string(O.Seed);
  S += ",\"jobs\":" + std::to_string(Jobs);
  return S + "}";
}

int run(const Options &O) {
  const unsigned Jobs =
      O.Jobs ? O.Jobs : std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
  Options Opt = O;
  Opt.Jobs = Jobs;
  const bool Cli = O.Workload == "cli";

  // Set-up: input generation, file loading and one warm-up check, repeated;
  // setup_s is the median, and the last instance is the one measured.
  std::vector<double> SetupS;
  std::unique_ptr<Workload> W;
  Tally T;
  const unsigned Setups = O.Trace ? 1 : SetupRepeats;
  for (unsigned K = 0; K < Setups; ++K) {
    const uint64_t Start = nowNs();
    W = makeWorkload(Opt);
    if (!W)
      throw std::runtime_error("unknown workload '" + O.Workload + "'");
    W->setup(O.Seed);
    timedCheck(*W, 0, T);
    SetupS.push_back((nowNs() - Start) / 1e9);
  }

  const double UntracedSeconds = O.Trace ? O.Seconds / 2 : O.Seconds;
  Phase Untraced = runUntraced(*W, UntracedSeconds, T);

  std::string Cross = W->crossCheck(Untraced.LatenciesMs.size());
  if (!Cross.empty()) {
    ++T.Wrong;
    T.note("reference mismatch: " + Cross);
  }

  std::string Out = "{\"workload\":\"" + O.Workload + "\"";
  Out += ",\"stamp\":" + stampJson(O, Jobs);
  Out += ",\"inputs_digest\":\"" + std::to_string(W->Digest) + "\"";
  Out += ",\"corpus_size\":" + std::to_string(W->size());
  Out += ",\"end_to_end\":" +
         renderFields(endToEnd(Untraced, SetupS, T, Cli));

  if (O.Trace) {
    // The traced replay visits inputs in the untraced loop's order, and each
    // replay's rendering must equal a fresh untraced check's. The
    // deterministic counts cover the first window: one round of a fixed
    // corpus, which every later round must repeat exactly, or the first 64
    // generated programs.
    const size_t Window =
        W->wholeRounds() ? W->size() : std::min<size_t>(W->size(), 64);
    Counts First, Round, Total;
    uint64_t ReplayChecks = 0, ReplayNs = 0, UntracedNs = 0;
    double SelfUs[NumSpanNames] = {};
    // Spans are reduced to self times check by check; the first window's
    // spans are also kept and written out at the end.
    std::vector<SpanRec> Saved;
    const uint64_t Start = nowNs();
    const uint64_t Budget = static_cast<uint64_t>(O.Seconds / 2 * 1e9);
    for (uint64_t Pos = 0; Pos < Window || !(mayStop(*W, Pos) &&
                                             nowNs() - Start >= Budget);
         ++Pos) {
      const size_t Index = W->Order[Pos % W->size()];
      TheTracer.CurrentCheck = static_cast<uint32_t>(Pos + 1);
      std::string Rendered;
      const uint64_t ReplayStart = nowNs();
      {
        Span Root(SpCheck, 0);
        Rendered = W->replay(Index, Root.id(), Round);
      }
      ReplayNs += nowNs() - ReplayStart;
      ++Round.Checks;
      ++ReplayChecks;
      std::vector<SpanRec> Spans = TheTracer.all();
      TheTracer.clear();
      addSelfTimes(Spans, SelfUs);
      if (Pos < Window)
        Saved.insert(Saved.end(), Spans.begin(), Spans.end());
      // The same input, untraced, right after: the tracing overhead compares
      // the two on identical inputs.
      Outcome U;
      UntracedNs += bookedCheck(*W, Index, T, U);
      if (U.Verdict && U.Rendered != Rendered) {
        ++T.Wrong;
        T.note("replay differs from the untraced check of input " +
               std::to_string(Index));
      }
      if ((Pos + 1) % Window != 0)
        continue;
      if (Pos + 1 == Window)
        First = Round;
      else if (W->wholeRounds() &&
               Round.deterministicKey() != First.deterministicKey()) {
        ++T.Wrong;
        T.note("replay counts changed between rounds");
      }
      Total.WorkerBusyUs += Round.WorkerBusyUs;
      Total.MergeWaitUs += Round.MergeWaitUs;
      Total.Exec.add(Round.Exec);
      Round = Counts();
    }
    Total.WorkerBusyUs += Round.WorkerBusyUs;
    Total.MergeWaitUs += Round.MergeWaitUs;
    Total.Exec.add(Round.Exec);
    const double ReplayWallS = ReplayNs / 1e9;

    const double Checks = static_cast<double>(ReplayChecks);
    auto PerCheck = [&](double Us) { return Us / Checks; };

    std::vector<Field> L;
    const uint64_t RoundN = Window;
    auto Count = [&](const char *Name, uint64_t V) {
      L.push_back({Name, "count", static_cast<double>(V), RoundN, ""});
    };
    auto Time = [&](const char *Name, const char *Unit, double V) {
      L.push_back({Name, Unit, V, ReplayChecks, ""});
    };
    auto Ratio = [&](const char *Name, double V) {
      L.push_back({Name, "ratio", V, RoundN, ""});
    };

    // Median wall time of `qcm-check --help`, spawn to exit.
    std::vector<double> StartMs;
    for (int I = 0; I < 40; ++I) {
      const uint64_t SpawnStart = nowNs();
      SpawnResult R = spawnCapture({O.BinDir + "/qcm-check", "--help"});
      if (!R.Started || !WIFEXITED(R.Status) || WEXITSTATUS(R.Status) != 0)
        throw std::runtime_error("qcm-check --help failed");
      StartMs.push_back((nowNs() - SpawnStart) / 1e6);
    }
    L.push_back({"tools.start_ms", "ms", median(StartMs), StartMs.size(), ""});
    // What the tool adds around the in-process work: process start, option
    // parsing, file reading, output.
    if (Cli)
      Time("tools.residual_ms", "ms", (UntracedNs - ReplayNs) / 1e6 / Checks);

    Time("lang.compile_us", "us", PerCheck(SelfUs[SpLangCompile]));
    Time("lang.print_us", "us", PerCheck(SelfUs[SpLangPrint]));
    Count("lang.compiles", First.LangCompiles);
    Time("ir.compile_us", "us", PerCheck(SelfUs[SpIrCompile]));
    Count("ir.compiles", First.IrCompiles);
    Ratio("ir.compiles_per_module",
          First.Modules.empty()
              ? 0
              : static_cast<double>(First.IrCompiles) / First.Modules.size());
    Time("semantics.exec_us", "us", PerCheck(SelfUs[SpExec]));
    Count("semantics.runs", First.Exec.Runs);
    Count("semantics.steps", First.Exec.Steps);
    L.push_back({"semantics.steps_per_us", "1/us",
                 SelfUs[SpExec] > 0 ? Total.Exec.Steps / SelfUs[SpExec] : 0,
                 ReplayChecks, ""});
    Count("semantics.switch_loop_runs", First.Exec.SwitchLoopRuns);
    Ratio("semantics.block_cache_hit_frac",
          Total.Exec.CacheHits + Total.Exec.BlocksTranslated
              ? static_cast<double>(Total.Exec.CacheHits) /
                    (Total.Exec.CacheHits + Total.Exec.BlocksTranslated)
              : 0);
    Count("memory.ops", First.Exec.MemOps);
    Count("memory.realizations", First.Exec.Realizations);
    Count("memory.alloc_failures", First.Exec.AllocFailures);
    const double IrUs = SelfUs[SpIrCompile];
    Time("refinement.plan_us", "us",
         PerCheck(std::max(0.0, SelfUs[SpPlan] + SelfUs[SpContexts] - IrUs)));
    Count("refinement.grid_cells", First.GridCells);
    Time("refinement.explore_us", "us", PerCheck(SelfUs[SpExplore]));
    Count("refinement.pool_jobs", First.PoolJobs);
    Time("refinement.merge_wait_us", "us", PerCheck(Total.MergeWaitUs));
    Time("refinement.worker_busy_us", "us", PerCheck(Total.WorkerBusyUs));
    Time("refinement.merge_us", "us", PerCheck(SelfUs[SpMerge]));
    Count("refinement.behaviors", First.Behaviors);
    Time("refinement.sweep_us", "us",
         PerCheck(SelfUs[SpSweep] + SelfUs[SpSweepCell]));
    Count("refinement.injected_runs", First.InjectedRuns);
    Ratio("refinement.probe_fired_frac",
          First.InjectedRuns
              ? static_cast<double>(First.ProbesFired) / First.InjectedRuns
              : 0);
    Time("refinement.report_us", "us", PerCheck(SelfUs[SpReport]));
    Time("opt.pipeline_us", "us", PerCheck(SelfUs[SpOptPipeline]));
    Time("opt.validate_us", "us",
         PerCheck(std::max(0.0, SelfUs[SpOptValidated] -
                                    SelfUs[SpOptPipeline])));
    Count("opt.applications", First.OptApplications);
    Count("opt.validation_runs", First.OptValidationRuns);
    Time("trace.unattributed_us", "us", PerCheck(SelfUs[SpCheck]));
    const double UntracedCps = Checks / (UntracedNs / 1e9);
    const double TracedCps = Checks / ReplayWallS;
    L.push_back({"trace.checks_per_s", "1/s", TracedCps, ReplayChecks, ""});
    L.push_back({"trace.overhead_checks_per_s", "1/s", UntracedCps - TracedCps,
                 ReplayChecks, ""});
    L.push_back({"trace.overhead_pct", "%",
                 UntracedCps > 0 ? 100.0 * (UntracedCps - TracedCps) / UntracedCps
                                 : 0,
                 ReplayChecks, ""});
    Out += ",\"per_layer\":" + renderFields(L);
    Out += ",\"deterministic_counts\":\"" + First.deterministicKey() + "\"";
    Out += ",\"spans_written\":" + std::to_string(Saved.size());

    if (!O.SpansPath.empty()) {
      std::FILE *F = std::fopen(O.SpansPath.c_str(), "w");
      if (!F)
        throw std::runtime_error("cannot write " + O.SpansPath);
      std::fprintf(F, "id\tparent\tcheck\tthread\tname\tstart_ns\tend_ns\n");
      for (const SpanRec &S : Saved)
        std::fprintf(F, "%u\t%u\t%u\t%u\t%s\t%llu\t%llu\n", S.Id, S.Parent,
                     S.Check, static_cast<unsigned>(S.Thread), SpanNames[S.Name],
                     static_cast<unsigned long long>(S.StartNs),
                     static_cast<unsigned long long>(S.EndNs));
      std::fclose(F);
    }
  }

  Out += ",\"attempted\":" + std::to_string(T.Attempted);
  Out += ",\"failed\":" + std::to_string(T.Failed);
  Out += ",\"wrong\":" + std::to_string(T.Wrong);
  std::string Errs = "[";
  for (size_t I = 0; I < T.Errors.size(); ++I)
    Errs += (I ? ",\"" : "\"") + jsonEscape(T.Errors[I]) + "\"";
  Out += ",\"errors\":" + Errs + "]}";

  std::FILE *F = std::fopen(O.OutPath.c_str(), "w");
  if (!F)
    throw std::runtime_error("cannot write " + O.OutPath);
  std::fprintf(F, "%s\n", Out.c_str());
  std::fclose(F);
  return T.Wrong || T.Failed ? 1 : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  try {
    for (int I = 1; I + 1 < Argc; I += 2) {
      const std::string K = Argv[I], V = Argv[I + 1];
      if (K == "--workload") O.Workload = V;
      else if (K == "--seed") O.Seed = std::stoull(V);
      else if (K == "--seconds") O.Seconds = std::stod(V);
      else if (K == "--trace") O.Trace = V == "1";
      else if (K == "--jobs") O.Jobs = static_cast<unsigned>(std::stoul(V));
      else if (K == "--root") O.Root = V;
      else if (K == "--bin") O.BinDir = V;
      else if (K == "--expected") O.Expected = V;
      else if (K == "--out") O.OutPath = V;
      else if (K == "--spans") O.SpansPath = V;
      else throw std::invalid_argument("unknown option " + K);
    }
    if (O.Workload.empty() || O.OutPath.empty() || O.Root.empty() ||
        O.BinDir.empty())
      throw std::invalid_argument("missing option");
  } catch (const std::exception &E) {
    std::fprintf(stderr, "e2e_harness: %s\nusage: e2e_harness --workload W "
                         "--seed N --seconds S --trace 0|1 --root DIR --bin DIR "
                         "--expected FILE --out FILE [--spans FILE] [--jobs N]\n", E.what());
    return 2;
  }
  try {
    return run(O);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "e2e_harness: %s\n", E.what());
    return 1;
  }
}
