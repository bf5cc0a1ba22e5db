//! The simulated kernel: machine state, process table, and memory
//! syscalls.
//!
//! [`Kernel`] owns physical memory, the global file/pipe tables, the
//! scheduler and the process table. The process-creation APIs in
//! `fpr-api` are implemented *against* this struct — fork and friends are
//! deliberately not methods here, because the whole point of the paper is
//! that they can be libraries over lower-level kernel operations.

use crate::error::{Errno, KResult};
use crate::fdtable::{Fd, FdEntry, FdTable};
use crate::file::{FileObject, OfdTable, OpenFlags};
use crate::lifecycle::OomGuard;
use crate::pid::{Pid, PidAllocator, ShardedPidTable, Tid, TidAllocator};
use crate::pipe::PipeTable;
use crate::rlimit::Resource;
use crate::sched::{Scheduler, Task};
use crate::task::Process;
use crate::time::Clock;
use crate::vfs::Vfs;
use fpr_mem::{
    AddressSpace, CommitAccount, CostModel, Cycles, FaultOutcome, OvercommitPolicy, Pfn,
    PhysMemory, Prot, Pte, Share, SharedFramePool, TlbBus, TlbModel, VmArea, VmaKind, Vpn,
};
use fpr_trace::metrics;
use fpr_trace::sink;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Default base VPN for the mmap arena when a process has no recorded
/// layout (0x4000_0000 bytes ≫ 12).
pub const DEFAULT_MMAP_BASE: u64 = 0x4000_0000 >> 12;

/// Machine configuration.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Physical frames (4 KiB each).
    pub frames: u64,
    /// Number of CPUs (bounds TLB-shootdown fan-out).
    pub cpus: u32,
    /// Overcommit policy.
    pub overcommit: OvercommitPolicy,
    /// Cycle cost model.
    pub cost: CostModel,
    /// Maximum simultaneously live PIDs.
    pub max_pids: u32,
    /// Swap-device capacity in one-page slots. Zero (the default) means
    /// no swap is configured and the kernel behaves exactly as before the
    /// swap tier existed.
    pub swap_slots: u64,
    /// Transparent huge pages. When enabled, every process address space
    /// promotes eligible 2 MiB-aligned private anonymous blocks to huge
    /// leaves; off (the default) reproduces the small-page-only machine
    /// exactly.
    pub thp: bool,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            frames: 262_144, // 1 GiB
            cpus: 4,
            overcommit: OvercommitPolicy::Heuristic,
            cost: CostModel::default(),
            max_pids: 4096,
            swap_slots: 0,
            thp: false,
        }
    }
}

/// The simulated machine and kernel.
#[derive(Debug)]
pub struct Kernel {
    /// Physical memory.
    pub phys: PhysMemory,
    /// TLB accounting.
    pub tlb: TlbModel,
    /// Global cycle counter (simulated time).
    pub cycles: Cycles,
    /// Virtual wall clock.
    pub clock: Clock,
    /// Commit accounting under the overcommit policy.
    pub commit: CommitAccount,
    /// The filesystem.
    pub vfs: Vfs,
    /// Open file descriptions.
    pub ofds: OfdTable,
    /// Pipes.
    pub pipes: PipeTable,
    /// Run queue.
    pub sched: Scheduler,
    /// Console output captured from Tty writes.
    pub console: Vec<u8>,
    /// PIDs of processes the OOM killer chose, in order.
    pub oom_kills: Vec<Pid>,
    /// Signal deliveries to user handlers, for tests: (pid, handler token).
    pub handler_log: Vec<(Pid, u64)>,
    /// Atfork handler executions: (process the handler ran in, token, phase).
    pub atfork_log: Vec<(Pid, u64, crate::atfork::AtforkPhase)>,
    /// Pending alarms (see `timer`).
    pub(crate) alarms: Vec<crate::timer::Alarm>,
    pub(crate) pids: PidAllocator,
    pub(crate) tids: TidAllocator,
    pub(crate) procs: BTreeMap<Pid, Process>,
    /// Live process count per real uid (RLIMIT_NPROC accounting).
    pub(crate) user_counts: BTreeMap<u32, u64>,
    /// Registered shrinkers, held weakly: subsystems own the strong
    /// handles and dropping them unregisters (see `reclaim`).
    pub(crate) shrinkers: Vec<std::sync::Weak<std::sync::Mutex<dyn crate::reclaim::Shrinker + Send>>>,
    /// Cumulative reclaim-pass statistics.
    pub(crate) reclaim_stats: crate::reclaim::ReclaimStats,
    /// Whether new address spaces get transparent huge pages.
    pub(crate) thp: bool,
    /// The machine-wide PID table; this cell's home shard is `cell`.
    pub(crate) pid_table: Arc<ShardedPidTable>,
    /// This kernel's cell index on its machine (its home PID shard).
    pub(crate) cell: usize,
    /// The machine-wide OOM guard.
    pub(crate) oom_guard: Arc<OomGuard>,
}

/// The services a machine shares across its cells: every cell is a
/// [`Kernel`], possibly on its own OS thread, drawing frames from one
/// pool, PIDs from one striped table, shootdowns over one interconnect,
/// and OOM kills through one guard. A single-kernel machine
/// ([`Kernel::new`]) is the one cell of its own `SmpShared`.
///
/// Build one `SmpShared`, then boot each cell with [`Kernel::new_smp`].
#[derive(Debug, Clone)]
pub struct SmpShared {
    /// The machine-wide frame pool cells draw magazines from.
    pub pool: Arc<SharedFramePool>,
    /// The striped PID space (one home shard per cell).
    pub pids: Arc<ShardedPidTable>,
    /// The TLB-shootdown interconnect.
    pub tlb: Arc<TlbBus>,
    /// The OOM-killer guard (kill epoch and lease).
    pub oom: Arc<OomGuard>,
}

impl SmpShared {
    /// Builds the shared services for a machine of `cells` cells using
    /// `cfg`'s frame and PID capacities.
    pub fn new(cfg: &MachineConfig, cells: usize) -> SmpShared {
        SmpShared {
            pool: Arc::new(SharedFramePool::new(cfg.frames)),
            pids: Arc::new(ShardedPidTable::new(cells.max(1), cfg.max_pids)),
            tlb: Arc::new(TlbBus::new()),
            oom: Arc::new(OomGuard::new()),
        }
    }
}

impl Kernel {
    /// Boots a machine: cell 0 of a one-cell machine of its own, with no
    /// frame magazine, so every frame is taken from the pool directly.
    pub fn new(cfg: MachineConfig) -> Kernel {
        let shared = SmpShared::new(&cfg, 1);
        let phys = PhysMemory::on_pool(Arc::clone(&shared.pool), cfg.cost.clone());
        Kernel::new_cell(&cfg, &shared, 0, phys)
    }

    /// Boots with the default configuration.
    pub fn boot() -> Kernel {
        Kernel::new(MachineConfig::default())
    }

    /// Boots cell `cell` of a multi-cell machine: a full kernel whose
    /// physical memory is a magazine over `shared.pool`, whose PIDs come
    /// from `shared.pids` (home shard `cell`), whose remote shootdowns
    /// serialize on `shared.tlb`, and whose OOM kills go through
    /// `shared.oom`. Everything else (process table, VFS, scheduler) is
    /// private to the cell, so cells only meet at the explicitly shared
    /// services — exactly where real SMP kernels contend.
    pub fn new_smp(cfg: MachineConfig, shared: &SmpShared, cell: usize) -> Kernel {
        let phys = PhysMemory::new_cell(Arc::clone(&shared.pool), cfg.cost.clone());
        Kernel::new_cell(&cfg, shared, cell, phys)
    }

    /// Assembles cell `cell` of `shared` around its physical memory.
    fn new_cell(
        cfg: &MachineConfig,
        shared: &SmpShared,
        cell: usize,
        mut phys: PhysMemory,
    ) -> Kernel {
        phys.set_swap_capacity(cfg.swap_slots);
        let mut tlb = TlbModel::new();
        tlb.bus = Arc::clone(&shared.tlb);
        let mut commit = CommitAccount::new(cfg.overcommit, cfg.frames);
        // CommitLimit = ratio * RAM + SwapTotal (Linux `Never` mode).
        commit.set_swap_pages(cfg.swap_slots);
        Kernel {
            phys,
            tlb,
            cycles: Cycles::new(),
            clock: Clock::new(),
            commit,
            vfs: Vfs::new(),
            ofds: OfdTable::new(),
            pipes: PipeTable::new(),
            sched: Scheduler::new(cfg.cpus),
            console: Vec::new(),
            oom_kills: Vec::new(),
            handler_log: Vec::new(),
            atfork_log: Vec::new(),
            alarms: Vec::new(),
            pids: PidAllocator::new(cfg.max_pids),
            tids: TidAllocator::new(),
            procs: BTreeMap::new(),
            user_counts: BTreeMap::new(),
            shrinkers: Vec::new(),
            reclaim_stats: crate::reclaim::ReclaimStats::default(),
            thp: cfg.thp,
            pid_table: Arc::clone(&shared.pids),
            cell,
            oom_guard: Arc::clone(&shared.oom),
        }
    }

    /// Allocates a PID from the machine-wide table (home shard first),
    /// adopting it into the cell's own allocator so per-cell invariants
    /// keep holding.
    pub(crate) fn alloc_pid(&mut self) -> KResult<Pid> {
        let pid = self.pid_table.alloc(self.cell)?;
        self.pids.adopt(pid);
        Ok(pid)
    }

    /// Frees a PID allocated by [`Kernel::alloc_pid`], in the cell and in
    /// the machine-wide table.
    pub(crate) fn free_pid(&mut self, pid: Pid) {
        self.pids.free(pid);
        self.pid_table.free(pid);
    }

    /// Charges one syscall entry/exit.
    pub fn charge_syscall(&mut self) {
        let c = self.phys.cost().syscall;
        self.cycles.charge(c);
    }

    /// Runs `f` with a trace sink installed, returning its result along
    /// with every [`fpr_trace::TraceEvent`] the instrumented kernel paths
    /// emitted during the scope. Tracing charges zero simulated cycles,
    /// so a traced operation costs exactly what an untraced one does.
    ///
    /// This is the assertion hook for tests and the capture point for
    /// exporters: feed the returned events to `fpr_trace::chrome` or
    /// `fpr_trace::report`.
    pub fn trace_scope<R>(
        &mut self,
        f: impl FnOnce(&mut Self) -> R,
    ) -> (R, Vec<fpr_trace::TraceEvent>) {
        sink::with_sink(|| f(self))
    }

    /// Creates the init process (PID 1) with stdio descriptors on the
    /// console.
    pub fn create_init(&mut self, name: &str) -> KResult<Pid> {
        let pid = self.alloc_pid()?;
        let tid = self.tids.alloc();
        let mut proc = Process::new(pid, pid, name, tid, self.vfs.root());
        proc.aspace.set_thp(self.thp);
        proc.pgid = crate::pgroup::Pgid(pid.0);
        proc.sid = crate::pgroup::Sid(pid.0);
        for flags in [OpenFlags::RDONLY, OpenFlags::WRONLY, OpenFlags::WRONLY] {
            let ofd = self.ofds.insert(FileObject::Tty, flags);
            proc.fds
                .install(
                    FdEntry {
                        ofd,
                        cloexec: false,
                    },
                    u64::MAX,
                )
                .expect("empty table");
        }
        *self.user_counts.entry(proc.cred.uid).or_insert(0) += 1;
        self.sched.enqueue(Task { pid, tid });
        self.procs.insert(pid, proc);
        Ok(pid)
    }

    /// Borrows a process.
    pub fn process(&self, pid: Pid) -> KResult<&Process> {
        self.procs.get(&pid).ok_or(Errno::Esrch)
    }

    /// Mutably borrows a process.
    pub fn process_mut(&mut self, pid: Pid) -> KResult<&mut Process> {
        self.procs.get_mut(&pid).ok_or(Errno::Esrch)
    }

    /// Fails with [`Errno::Esrch`] unless `pid` exists and is not a
    /// zombie — a zombie has no threads left to issue syscalls.
    pub fn ensure_alive(&self, pid: Pid) -> KResult<()> {
        if self.process(pid)?.is_zombie() {
            Err(Errno::Esrch)
        } else {
            Ok(())
        }
    }

    /// All live PIDs in order.
    pub fn pids(&self) -> Vec<Pid> {
        self.procs.keys().copied().collect()
    }

    /// Number of processes in the table (including zombies).
    pub fn process_count(&self) -> usize {
        self.procs.len()
    }

    /// Live (running) processes of one uid.
    pub fn nproc_of(&self, uid: u32) -> u64 {
        self.user_counts.get(&uid).copied().unwrap_or(0)
    }

    /// Allocates a new process shell as a child of `ppid`, enforcing
    /// `RLIMIT_NPROC`. The caller (fork/spawn implementation) populates
    /// its state. The child starts with an empty address space and FD
    /// table and is enqueued for scheduling.
    pub fn allocate_process(&mut self, ppid: Pid, name: &str) -> KResult<Pid> {
        sink::span_begin("allocate_process", "kernel", self.cycles.total());
        let r = self.allocate_process_inner(ppid, name);
        sink::span_end("allocate_process", self.cycles.total());
        r
    }

    fn allocate_process_inner(&mut self, ppid: Pid, name: &str) -> KResult<Pid> {
        self.ensure_alive(ppid)?;
        let (uid, nproc_limit, cwd, cred, rlimits, pgid, sid) = {
            let p = self.process(ppid)?;
            (
                p.cred.uid,
                p.rlimits.get(Resource::Nproc).soft,
                p.cwd,
                p.cred,
                p.rlimits,
                p.pgid,
                p.sid,
            )
        };
        if self.nproc_of(uid) >= nproc_limit {
            return Err(Errno::Eagain);
        }
        let pid = self.alloc_pid()?;
        let tid = self.tids.alloc();
        let mut proc = Process::new(pid, ppid, name, tid, cwd);
        proc.aspace.set_thp(self.thp);
        proc.cred = cred;
        proc.rlimits = rlimits;
        proc.pgid = pgid;
        proc.sid = sid;
        *self.user_counts.entry(uid).or_insert(0) += 1;
        self.sched.enqueue(Task { pid, tid });
        self.procs.insert(pid, proc);
        if let Some(parent) = self.procs.get_mut(&ppid) {
            parent.children.push(pid);
        }
        Ok(pid)
    }

    /// Number of CPUs currently executing threads of `pid`, at least 1
    /// (the caller itself runs somewhere).
    pub fn cpus_running(&self, pid: Pid) -> u32 {
        self.sched.cpus_running(pid).max(1)
    }

    /// Resolves the process whose address space `pid` actually operates
    /// on: itself normally, or the lender for a vfork borrower.
    pub fn space_owner(&self, pid: Pid) -> KResult<Pid> {
        let mut cur = pid;
        for _ in 0..16 {
            match self.process(cur)?.space_ref {
                crate::task::SpaceRef::Owned => return Ok(cur),
                crate::task::SpaceRef::BorrowedFrom(p) => cur = p,
            }
        }
        Err(Errno::Esrch)
    }

    // ------------------------------------------------------------------
    // Memory syscalls
    // ------------------------------------------------------------------

    /// Maps `pages` of anonymous memory with the given protection and
    /// sharing, returning the chosen base page.
    pub fn mmap_anon(&mut self, pid: Pid, pages: u64, prot: Prot, share: Share) -> KResult<Vpn> {
        self.ensure_alive(pid)?;
        self.charge_syscall();
        let hint = {
            let p = self.process(pid)?;
            if p.layout.mmap_base != 0 {
                Vpn(p.layout.mmap_base)
            } else {
                Vpn(DEFAULT_MMAP_BASE)
            }
        };
        let start = {
            let p = self.process(pid)?;
            let limit = p.rlimits.get(Resource::AsPages).soft;
            if p.aspace.virtual_pages() + pages > limit {
                return Err(Errno::Enomem);
            }
            if self.thp && share == Share::Private && pages >= fpr_mem::HUGE_PAGES {
                // Linux's `thp_get_unmapped_area`: over-ask by one block
                // and round up, so a block-sized private mapping starts
                // 2 MiB-aligned and promotion has something to bite on.
                // ASLR hints are page-granular, so without this a THP
                // machine would almost never see an aligned VMA.
                let s = p
                    .aspace
                    .find_free_range(pages + fpr_mem::HUGE_PAGES - 1, hint)?;
                Vpn((s.0 + fpr_mem::HUGE_PAGES - 1) & !(fpr_mem::HUGE_PAGES - 1))
            } else {
                p.aspace.find_free_range(pages, hint)?
            }
        };
        let mut vma = VmArea::anon(start, pages, prot, VmaKind::Mmap);
        vma.share = share;
        self.mmap_at(pid, vma)?;
        Ok(start)
    }

    /// Maps an explicit VMA (loader path), charging commit. An `ENOMEM`
    /// under real memory pressure triggers one direct-reclaim pass (see
    /// `reclaim`) and a single retry before surfacing.
    pub fn mmap_at(&mut self, pid: Pid, vma: VmArea) -> KResult<()> {
        match self.mmap_at_inner(pid, vma.clone()) {
            Err(Errno::Enomem) if self.direct_reclaim() => self.mmap_at_inner(pid, vma),
            r => r,
        }
    }

    fn mmap_at_inner(&mut self, pid: Pid, vma: VmArea) -> KResult<()> {
        self.ensure_alive(pid)?;
        let Kernel {
            phys,
            commit,
            cycles,
            procs,
            ..
        } = self;
        let p = procs.get_mut(&pid).ok_or(Errno::Esrch)?;
        let charge = commit_charge_of(&vma);
        commit.charge(charge, phys.free_frames())?;
        match p.aspace.mmap(vma, phys, cycles) {
            Ok(()) => Ok(()),
            Err(e) => {
                commit.release(charge);
                Err(e.into())
            }
        }
    }

    /// Unmaps a range.
    pub fn munmap(&mut self, pid: Pid, start: Vpn, pages: u64) -> KResult<u64> {
        self.ensure_alive(pid)?;
        self.charge_syscall();
        let cpus = self.cpus_running(pid);
        let Kernel {
            phys,
            cycles,
            tlb,
            commit,
            procs,
            ..
        } = self;
        let p = procs.get_mut(&pid).ok_or(Errno::Esrch)?;
        // Release the commit charge of the VMAs actually covered.
        let mut release = 0u64;
        for v in p.aspace.vmas().filter(|v| v.overlaps(start, pages)) {
            let lo = v.start.0.max(start.0);
            let hi = v.end().0.min(start.0 + pages);
            if commit_charge_of(v) > 0 {
                release += hi - lo;
            }
        }
        let freed = p.aspace.munmap(start, pages, phys, cycles, tlb, cpus)?;
        commit.release(release);
        Ok(freed)
    }

    /// Writes `val` to the page at `vpn` of `pid`, faulting as needed. An
    /// `ENOMEM` under real memory pressure triggers one direct-reclaim
    /// pass and a single retry before surfacing.
    pub fn write_mem(&mut self, pid: Pid, vpn: Vpn, val: u64) -> KResult<FaultOutcome> {
        match self.write_mem_inner(pid, vpn, val) {
            Err(Errno::Enomem) if self.direct_reclaim() => self.write_mem_inner(pid, vpn, val),
            Err(Errno::Eio) => self.swap_io_sigbus(pid),
            r => r,
        }
    }

    fn write_mem_inner(&mut self, pid: Pid, vpn: Vpn, val: u64) -> KResult<FaultOutcome> {
        self.ensure_alive(pid)?;
        let owner = self.space_owner(pid)?;
        let cpus = self.cpus_running(owner);
        let Kernel {
            phys,
            cycles,
            tlb,
            procs,
            ..
        } = self;
        let p = procs.get_mut(&owner).ok_or(Errno::Esrch)?;
        Ok(p.aspace.write(vpn, val, phys, cycles, tlb, cpus)?)
    }

    /// Reads the page at `vpn` of `pid`, faulting as needed. A read of a
    /// swapped-out page allocates a frame, so an `ENOMEM` under real
    /// pressure triggers one direct-reclaim pass and a single retry.
    pub fn read_mem(&mut self, pid: Pid, vpn: Vpn) -> KResult<u64> {
        match self.read_mem_inner(pid, vpn) {
            Err(Errno::Enomem) if self.direct_reclaim() => self.read_mem_inner(pid, vpn),
            Err(Errno::Eio) => self.swap_io_sigbus(pid),
            r => r,
        }
    }

    fn read_mem_inner(&mut self, pid: Pid, vpn: Vpn) -> KResult<u64> {
        self.ensure_alive(pid)?;
        let owner = self.space_owner(pid)?;
        let Kernel {
            phys,
            cycles,
            procs,
            ..
        } = self;
        let p = procs.get_mut(&owner).ok_or(Errno::Esrch)?;
        Ok(p.aspace.read(vpn, phys, cycles)?.0)
    }

    /// Pre-faults a range (`MAP_POPULATE`). An `ENOMEM` under real memory
    /// pressure triggers one direct-reclaim pass and a single retry
    /// before surfacing; an interrupted populate is resumable, so the
    /// retry picks up where the failed pass stopped.
    pub fn populate(&mut self, pid: Pid, start: Vpn, pages: u64) -> KResult<()> {
        match self.populate_inner(pid, start, pages) {
            Err(Errno::Enomem) if self.direct_reclaim() => self.populate_inner(pid, start, pages),
            Err(Errno::Eio) => self.swap_io_sigbus(pid),
            r => r,
        }
    }

    /// SIGBUS-style containment for a swap-device I/O error: the process
    /// whose access needed the unreadable page is killed with the exit
    /// status of a fatal `SIGBUS` and the access fails with `EFAULT`.
    /// Only the faulting process dies — the swap entry, its slot, and all
    /// kernel-wide state stay consistent (real kernels deliver `SIGBUS`
    /// on exactly this path: a swap-in that the device fails).
    fn swap_io_sigbus<T>(&mut self, pid: Pid) -> KResult<T> {
        metrics::incr("kernel.swap.sigbus");
        sink::instant("swap_sigbus", "kernel", self.cycles.total());
        self.exit(pid, crate::lifecycle::SIGBUS_EXIT_STATUS)?;
        Err(Errno::Efault)
    }

    /// True while the swap device's refault window shows thrashing — the
    /// machine is paging against its own working set. Spawn fast-path
    /// refill and retry backoff use this as a backpressure signal.
    pub fn swap_thrashing(&self) -> bool {
        self.phys.swap().thrashing()
    }

    fn populate_inner(&mut self, pid: Pid, start: Vpn, pages: u64) -> KResult<()> {
        self.ensure_alive(pid)?;
        let owner = self.space_owner(pid)?;
        let Kernel {
            phys,
            cycles,
            procs,
            ..
        } = self;
        let p = procs.get_mut(&owner).ok_or(Errno::Esrch)?;
        Ok(p.aspace.populate(start, pages, phys, cycles)?)
    }

    // ------------------------------------------------------------------
    // Fork-support plumbing (used by fpr-api)
    // ------------------------------------------------------------------

    /// Duplicates `pid`'s descriptor table for a child: every entry takes
    /// a reference on its open file description, and pipe end counts grow.
    ///
    /// All-or-nothing: a mid-copy failure releases every reference already
    /// taken, so on `Err` the OFD table is exactly as before the call.
    pub fn clone_fd_table(&mut self, pid: Pid) -> KResult<FdTable> {
        sink::span_begin("clone_fd_table", "kernel", self.cycles.total());
        let r = self.clone_fd_table_inner(pid);
        sink::span_end("clone_fd_table", self.cycles.total());
        r
    }

    fn clone_fd_table_inner(&mut self, pid: Pid) -> KResult<FdTable> {
        let entries: Vec<(Fd, FdEntry)> = self.process(pid)?.fds.iter().collect();
        let fd_cost = self.phys.cost().fd_clone;
        let mut table = FdTable::new();
        for (fd, entry) in entries {
            // Each open descriptor costs a fixed amount to duplicate; the
            // table's sparse storage means closed slots cost nothing, so
            // fork's FD work scales with open descriptors, not max fd.
            self.cycles.charge(fd_cost);
            metrics::incr("kernel.fd_clone");
            // Shares the description (and therefore the offset); pipe end
            // counts follow descriptions, not descriptors, so they are
            // untouched here.
            let step = self
                .ofds
                .incref(entry.ofd)
                .and_then(|()| match table.install_at(fd, entry, u64::MAX) {
                    Ok(_) => Ok(()),
                    Err(e) => {
                        let survived = self.ofds.decref(entry.ofd).expect("ref just taken");
                        debug_assert!(survived.is_none(), "parent still holds a reference");
                        Err(e)
                    }
                });
            if let Err(e) = step {
                // Unwind references taken for earlier entries. The parent
                // still references each description, so none can reach zero.
                for e2 in table.drain() {
                    let survived = self.ofds.decref(e2.ofd).expect("ref taken above");
                    debug_assert!(survived.is_none());
                }
                return Err(e);
            }
        }
        Ok(table)
    }

    /// Rolls back a process created by [`Kernel::allocate_process`] whose
    /// population failed partway. Unlike `exit`, this is not a lifecycle
    /// event: no streams flush, no `SIGCHLD` fires, no zombie is left —
    /// the child simply ceases to exist and every resource it held
    /// (descriptors, address space, commit charge, PID, scheduler slot,
    /// per-uid process accounting) returns to its pre-creation state.
    pub fn abort_process_creation(&mut self, child: Pid) -> KResult<()> {
        metrics::incr("kernel.process_abort");
        if sink::is_active() {
            sink::emit(
                fpr_trace::TraceEvent::new(
                    "abort_process_creation",
                    "kernel",
                    fpr_trace::Phase::Instant,
                    self.cycles.total(),
                )
                .arg("pid", child.0 as u64),
            );
        }
        // Release descriptors the child already received.
        let entries = self.process_mut(child)?.fds.drain();
        for e in entries {
            crate::io::release_entry(&mut self.ofds, &mut self.pipes, e)?;
        }
        // Release its memory, or return a vfork borrow to the lender.
        let space_ref = self.process(child)?.space_ref.clone();
        match space_ref {
            crate::task::SpaceRef::Owned => {
                let commit = self.process(child)?.aspace.commit_pages();
                {
                    let Kernel {
                        phys,
                        cycles,
                        procs,
                        ..
                    } = self;
                    let p = procs.get_mut(&child).ok_or(Errno::Esrch)?;
                    p.aspace.destroy(phys, cycles);
                }
                self.commit.release(commit);
            }
            crate::task::SpaceRef::BorrowedFrom(parent) => {
                self.vfork_return(parent, child)?;
            }
        }
        // Unlink from the scheduler, the parent, accounting, and the PID
        // space.
        self.sched.remove_process(child);
        self.clear_alarms(child);
        let (ppid, uid) = {
            let p = self.process(child)?;
            (p.ppid, p.cred.uid)
        };
        if let Some(pp) = self.procs.get_mut(&ppid) {
            pp.children.retain(|c| *c != child);
        }
        if let Some(c) = self.user_counts.get_mut(&uid) {
            *c = c.saturating_sub(1);
        }
        self.procs.remove(&child);
        self.free_pid(child);
        Ok(())
    }

    /// Duplicates `pid`'s address space with fork semantics, charging the
    /// child's commit against the overcommit policy first.
    pub fn clone_address_space(
        &mut self,
        pid: Pid,
        mode: fpr_mem::ForkMode,
    ) -> KResult<AddressSpace> {
        sink::span_begin("clone_address_space", "kernel", self.cycles.total());
        let r = match self.clone_address_space_inner(pid, mode) {
            // The clone rolls back on failure, so a single direct-reclaim
            // retry under real pressure is safe.
            Err(Errno::Enomem) if self.direct_reclaim() => {
                self.clone_address_space_inner(pid, mode)
            }
            r => r,
        };
        sink::span_end("clone_address_space", self.cycles.total());
        r
    }

    fn clone_address_space_inner(
        &mut self,
        pid: Pid,
        mode: fpr_mem::ForkMode,
    ) -> KResult<AddressSpace> {
        let cpus = self.cpus_running(pid);
        let Kernel {
            phys,
            cycles,
            tlb,
            commit,
            procs,
            ..
        } = self;
        let p = procs.get_mut(&pid).ok_or(Errno::Esrch)?;
        let charge = p.aspace.commit_pages();
        commit.charge(charge, phys.free_frames())?;
        match AddressSpace::fork_from(&mut p.aspace, mode, phys, cycles, tlb, cpus) {
            Ok(space) => Ok(space),
            Err(e) => {
                commit.release(charge);
                Err(e.into())
            }
        }
    }

    /// Spawns an additional thread in `pid`.
    pub fn spawn_thread(&mut self, pid: Pid) -> KResult<Tid> {
        let tid = self.tids.alloc();
        let p = self.process_mut(pid)?;
        p.threads.push(crate::thread::Thread::new(tid));
        self.sched.enqueue(Task { pid, tid });
        Ok(tid)
    }

    /// Registers a userspace lock in `pid`.
    pub fn register_lock(&mut self, pid: Pid, name_id: u32) -> KResult<crate::sync::LockId> {
        Ok(self.process_mut(pid)?.locks.register(name_id))
    }

    /// Acquires a lock for `tid` in `pid`.
    ///
    /// Returns [`Errno::Ebusy`] and blocks the thread when contended, and
    /// [`Errno::Edeadlk`] when the owner no longer exists in the process —
    /// the post-fork orphaned-lock deadlock.
    pub fn lock_acquire(&mut self, pid: Pid, tid: Tid, lock: crate::sync::LockId) -> KResult<()> {
        let p = self.process_mut(pid)?;
        match p.locks.acquire(lock, tid) {
            Ok(()) => {
                if let Some(t) = p.thread_mut(tid) {
                    t.note_acquired(lock);
                }
                Ok(())
            }
            Err(Errno::Ebusy) => {
                let owner = p
                    .locks
                    .get(lock)
                    .and_then(|l| l.owner)
                    .expect("busy lock has owner");
                if p.thread(owner).is_none() {
                    // The owner died with the fork: permanent deadlock.
                    return Err(Errno::Edeadlk);
                }
                if let Some(t) = p.thread_mut(tid) {
                    t.state = crate::thread::ThreadState::BlockedOnLock(lock);
                }
                Err(Errno::Ebusy)
            }
            Err(e) => Err(e),
        }
    }

    /// Releases a lock and wakes one blocked waiter.
    pub fn lock_release(&mut self, pid: Pid, tid: Tid, lock: crate::sync::LockId) -> KResult<()> {
        let p = self.process_mut(pid)?;
        p.locks.release(lock, tid)?;
        if let Some(t) = p.thread_mut(tid) {
            t.note_released(lock);
        }
        if let Some(w) = p
            .threads
            .iter_mut()
            .find(|t| t.state == crate::thread::ThreadState::BlockedOnLock(lock))
        {
            w.state = crate::thread::ThreadState::Runnable;
        }
        Ok(())
    }

    /// Parks every thread of `pid` for the duration of a vfork child's
    /// borrow.
    pub fn vfork_park(&mut self, pid: Pid, child: Pid) -> KResult<()> {
        let p = self.process_mut(pid)?;
        p.park_all_threads();
        p.vfork_children.push(child);
        Ok(())
    }

    /// Returns a vfork borrow: unparks the parent.
    pub fn vfork_return(&mut self, parent: Pid, child: Pid) -> KResult<()> {
        let p = self.process_mut(parent)?;
        p.vfork_children.retain(|c| *c != child);
        if p.vfork_children.is_empty() {
            p.unpark_all_threads();
        }
        Ok(())
    }

    /// Destroys `pid`'s owned address space, releasing frames and commit
    /// charge (exec's teardown path).
    pub fn destroy_address_space(&mut self, pid: Pid) -> KResult<()> {
        sink::span_begin("destroy_address_space", "kernel", self.cycles.total());
        let r = self.destroy_address_space_inner(pid);
        sink::span_end("destroy_address_space", self.cycles.total());
        r
    }

    fn destroy_address_space_inner(&mut self, pid: Pid) -> KResult<()> {
        let commit = self.process(pid)?.aspace.commit_pages();
        {
            let Kernel {
                phys,
                cycles,
                procs,
                ..
            } = self;
            let p = procs.get_mut(&pid).ok_or(Errno::Esrch)?;
            p.aspace.destroy(phys, cycles);
        }
        self.commit.release(commit);
        Ok(())
    }

    /// Replaces `pid`'s address space with an empty owned one *without*
    /// destroying the old (used when the old space was borrowed via vfork).
    pub fn detach_borrowed_space(&mut self, pid: Pid) -> KResult<()> {
        let thp = self.thp;
        let p = self.process_mut(pid)?;
        p.aspace = AddressSpace::new();
        p.aspace.set_thp(thp);
        p.space_ref = crate::task::SpaceRef::Owned;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Spawn fast-path plumbing (exec image cache + warm-child pool)
    // ------------------------------------------------------------------

    /// Relocates the VMA of `pid` starting exactly at `old` to `new`,
    /// carrying resident pages along (see
    /// [`AddressSpace::slide_vma`]). No TLB work: the only caller slides
    /// warm-pool children that have never been scheduled, so no CPU holds
    /// stale translations.
    pub fn slide_vma(&mut self, pid: Pid, old: Vpn, new: Vpn) -> KResult<u64> {
        let owner = self.space_owner(pid)?;
        let Kernel {
            phys,
            cycles,
            procs,
            ..
        } = self;
        let p = procs.get_mut(&owner).ok_or(Errno::Esrch)?;
        let cost = phys.cost().clone();
        Ok(p.aspace.slide_vma(old, new, phys, cycles, &cost)?)
    }

    /// Maps an image-cache frame at `vpn` of `pid` copy-on-write (see
    /// [`AddressSpace::map_shared_frame`]). `exec` governs the NX bit.
    pub fn map_shared_frame(&mut self, pid: Pid, vpn: Vpn, pfn: Pfn, exec: bool) -> KResult<()> {
        let owner = self.space_owner(pid)?;
        let Kernel {
            phys,
            cycles,
            procs,
            ..
        } = self;
        let p = procs.get_mut(&owner).ok_or(Errno::Esrch)?;
        Ok(p.aspace.map_shared_frame(vpn, pfn, exec, phys, cycles)?)
    }

    /// Write-protects and COW-marks the resident page at `vpn` of `pid`
    /// so its frame can enter the exec image cache (see
    /// [`AddressSpace::cow_protect_page`]). Returns the installed PTE.
    pub fn cow_protect_page(&mut self, pid: Pid, vpn: Vpn) -> KResult<Pte> {
        let owner = self.space_owner(pid)?;
        let Kernel {
            phys,
            cycles,
            procs,
            ..
        } = self;
        let p = procs.get_mut(&owner).ok_or(Errno::Esrch)?;
        Ok(p.aspace.cow_protect_page(vpn, phys, cycles)?)
    }

    /// Re-parents a warm-pool child onto `new_parent` at checkout: the
    /// child adopts the new parent's credentials, resource limits, working
    /// directory, and process group/session — exactly what it would have
    /// inherited had `new_parent` spawned it directly — and per-uid
    /// process accounting moves with it. Enforces the adopter's
    /// `RLIMIT_NPROC` the same way [`Kernel::allocate_process`] does, so a
    /// pool hit cannot evade the limit a plain spawn would hit.
    pub fn adopt_process(&mut self, child: Pid, new_parent: Pid) -> KResult<()> {
        self.ensure_alive(child)?;
        self.ensure_alive(new_parent)?;
        let (new_uid, nproc_limit, cwd, cred, rlimits, pgid, sid) = {
            let p = self.process(new_parent)?;
            (
                p.cred.uid,
                p.rlimits.get(Resource::Nproc).soft,
                p.cwd,
                p.cred,
                p.rlimits,
                p.pgid,
                p.sid,
            )
        };
        let (old_ppid, old_uid) = {
            let p = self.process(child)?;
            (p.ppid, p.cred.uid)
        };
        // The child already counts in its current uid bucket; compare the
        // count it would add to, excluding itself.
        let counted = if new_uid == old_uid {
            self.nproc_of(new_uid).saturating_sub(1)
        } else {
            self.nproc_of(new_uid)
        };
        if counted >= nproc_limit {
            return Err(Errno::Eagain);
        }
        if let Some(pp) = self.procs.get_mut(&old_ppid) {
            pp.children.retain(|c| *c != child);
        }
        if let Some(np) = self.procs.get_mut(&new_parent) {
            np.children.push(child);
        }
        if new_uid != old_uid {
            if let Some(c) = self.user_counts.get_mut(&old_uid) {
                *c = c.saturating_sub(1);
            }
            *self.user_counts.entry(new_uid).or_insert(0) += 1;
        }
        let p = self.process_mut(child)?;
        p.ppid = new_parent;
        p.cwd = cwd;
        p.cred = cred;
        p.rlimits = rlimits;
        p.pgid = pgid;
        p.sid = sid;
        Ok(())
    }

    /// Releases one descriptor-table entry (public wrapper over the io
    /// internals, for the exec path in `fpr-exec`).
    pub fn release_fd_entry(&mut self, entry: FdEntry) -> KResult<()> {
        crate::io::release_entry(&mut self.ofds, &mut self.pipes, entry)
    }

    /// Moves `pid`'s per-uid process accounting to `new_uid` (after a
    /// credential change). The PCB's credential fields are the caller's
    /// responsibility.
    pub fn move_uid_accounting(&mut self, pid: Pid, new_uid: u32) -> KResult<()> {
        let old_uid = {
            // The PCB may already carry the new uid; account by what the
            // books say, decrementing whichever entry this pid was under.
            // Since books are per-uid counters (not per-pid), use ppid
            // lineage: decrement the parent's uid bucket.
            let p = self.process(pid)?;
            let parent = self
                .process(p.ppid)
                .map(|pp| pp.cred.uid)
                .unwrap_or(p.cred.uid);
            parent
        };
        if old_uid == new_uid {
            return Ok(());
        }
        if let Some(c) = self.user_counts.get_mut(&old_uid) {
            *c = c.saturating_sub(1);
        }
        *self.user_counts.entry(new_uid).or_insert(0) += 1;
        Ok(())
    }

    /// Total resident pages across all live processes.
    pub fn total_resident(&self) -> u64 {
        self.procs
            .values()
            .filter(|p| !p.is_zombie())
            .map(|p| p.resident_pages())
            .sum()
    }

    /// Total swapped-out pages across all live processes (page-table
    /// view; shared slots count once per referencing space, like RSS).
    pub fn total_swapped(&self) -> u64 {
        self.procs
            .values()
            .filter(|p| !p.is_zombie())
            .map(|p| p.aspace.swapped_pages())
            .sum()
    }
}

/// Commit charge of one VMA (mirrors `fpr_mem`'s accounting rule).
fn commit_charge_of(v: &VmArea) -> u64 {
    match (v.share, v.backing, v.prot.write) {
        (Share::Private, _, true) => v.pages,
        (Share::Shared, fpr_mem::Backing::Anon, _) => v.pages,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn boot_with_init() -> (Kernel, Pid) {
        let mut k = Kernel::boot();
        let init = k.create_init("init").unwrap();
        (k, init)
    }

    #[test]
    fn init_has_stdio_on_console() {
        let (k, init) = boot_with_init();
        let p = k.process(init).unwrap();
        assert_eq!(p.fds.open_count(), 3);
        assert_eq!(p.pid, Pid(1));
        assert_eq!(k.ofds.live(), 3);
    }

    #[test]
    fn allocate_process_links_parent_and_counts_uid() {
        let (mut k, init) = boot_with_init();
        let child = k.allocate_process(init, "child").unwrap();
        assert_eq!(k.process(child).unwrap().ppid, init);
        assert!(k.process(init).unwrap().children.contains(&child));
        assert_eq!(k.nproc_of(0), 2);
    }

    #[test]
    fn nproc_limit_blocks_allocation() {
        let (mut k, init) = boot_with_init();
        k.process_mut(init)
            .unwrap()
            .rlimits
            .set(Resource::Nproc, crate::rlimit::Rlimit::both(2));
        k.allocate_process(init, "a").unwrap();
        assert_eq!(k.allocate_process(init, "b"), Err(Errno::Eagain));
    }

    #[test]
    fn mmap_write_read_roundtrip() {
        let (mut k, init) = boot_with_init();
        let base = k.mmap_anon(init, 4, Prot::RW, Share::Private).unwrap();
        k.write_mem(init, base, 77).unwrap();
        assert_eq!(k.read_mem(init, base), Ok(77));
        assert_eq!(k.read_mem(init, base.add(1)), Ok(0));
        assert_eq!(k.process(init).unwrap().resident_pages(), 2);
    }

    #[test]
    fn mmap_respects_as_rlimit() {
        let (mut k, init) = boot_with_init();
        k.process_mut(init)
            .unwrap()
            .rlimits
            .set(Resource::AsPages, crate::rlimit::Rlimit::both(10));
        assert!(k.mmap_anon(init, 8, Prot::RW, Share::Private).is_ok());
        assert_eq!(
            k.mmap_anon(init, 8, Prot::RW, Share::Private),
            Err(Errno::Enomem)
        );
    }

    #[test]
    fn munmap_releases_commit() {
        let (mut k, init) = boot_with_init();
        let before = k.commit.committed();
        let base = k.mmap_anon(init, 16, Prot::RW, Share::Private).unwrap();
        assert_eq!(k.commit.committed(), before + 16);
        k.munmap(init, base, 16).unwrap();
        assert_eq!(k.commit.committed(), before);
    }

    #[test]
    fn commit_limit_never_policy_fails_up_front() {
        let mut k = Kernel::new(MachineConfig {
            frames: 100,
            overcommit: OvercommitPolicy::Never { ratio: 0.5 },
            ..MachineConfig::default()
        });
        let init = k.create_init("init").unwrap();
        assert!(k.mmap_anon(init, 40, Prot::RW, Share::Private).is_ok());
        assert_eq!(
            k.mmap_anon(init, 40, Prot::RW, Share::Private),
            Err(Errno::Enomem)
        );
    }

    #[test]
    fn clone_fd_table_shares_descriptions() {
        let (mut k, init) = boot_with_init();
        let table = k.clone_fd_table(init).unwrap();
        assert_eq!(table.open_count(), 3);
        // Each of the three stdio OFDs now has two references.
        let entry = table.get(crate::fdtable::STDOUT).unwrap();
        assert_eq!(k.ofds.refs(entry.ofd), Ok(2));
    }

    #[test]
    fn clone_address_space_charges_commit() {
        let (mut k, init) = boot_with_init();
        k.mmap_anon(init, 8, Prot::RW, Share::Private).unwrap();
        let before = k.commit.committed();
        let space = k.clone_address_space(init, fpr_mem::ForkMode::Cow).unwrap();
        assert_eq!(k.commit.committed(), before + 8);
        assert_eq!(space.virtual_pages(), 8);
    }

    #[test]
    fn adopt_process_reparents_and_enforces_adopter_nproc() {
        let (mut k, init) = boot_with_init();
        let parked = k.allocate_process(init, "parked").unwrap();
        let adopter = k.allocate_process(init, "adopter").unwrap();
        // Three live processes of uid 0; an adopter capped at 2 would not
        // have been allowed to spawn the child itself, so adoption fails.
        k.process_mut(adopter)
            .unwrap()
            .rlimits
            .set(Resource::Nproc, crate::rlimit::Rlimit::both(2));
        assert_eq!(k.adopt_process(parked, adopter), Err(Errno::Eagain));
        assert_eq!(k.process(parked).unwrap().ppid, init, "unchanged on Err");
        k.process_mut(adopter)
            .unwrap()
            .rlimits
            .set(Resource::Nproc, crate::rlimit::Rlimit::both(8));
        k.adopt_process(parked, adopter).unwrap();
        assert_eq!(k.process(parked).unwrap().ppid, adopter);
        assert!(k.process(adopter).unwrap().children.contains(&parked));
        assert!(!k.process(init).unwrap().children.contains(&parked));
        assert_eq!(k.nproc_of(0), 3, "same-uid adoption moves no accounting");
        // Adopting back restores the original linkage (the re-park path).
        k.adopt_process(parked, init).unwrap();
        assert_eq!(k.process(parked).unwrap().ppid, init);
        assert!(!k.process(adopter).unwrap().children.contains(&parked));
    }

    #[test]
    fn slide_vma_via_kernel_keeps_commit_and_resident() {
        let (mut k, init) = boot_with_init();
        let base = k.mmap_anon(init, 8, Prot::RW, Share::Private).unwrap();
        k.write_mem(init, base, 3).unwrap();
        let committed = k.commit.committed();
        let resident = k.process(init).unwrap().resident_pages();
        let dest = Vpn(base.0 + 0x10_0000);
        let moved = k.slide_vma(init, base, dest).unwrap();
        assert_eq!(moved, 1, "one resident page carried");
        assert_eq!(k.commit.committed(), committed);
        assert_eq!(k.process(init).unwrap().resident_pages(), resident);
        assert_eq!(k.read_mem(init, dest), Ok(3));
    }

    #[test]
    fn orphaned_lock_is_edeadlk() {
        let (mut k, init) = boot_with_init();
        let lock = k
            .register_lock(init, crate::sync::names::MALLOC_ARENA)
            .unwrap();
        // A "ghost" thread that will not survive fork: simulate by
        // acquiring with a tid that is not in the thread list.
        let ghost = Tid(9999);
        k.process_mut(init)
            .unwrap()
            .locks
            .acquire(lock, ghost)
            .unwrap();
        let main = k.process(init).unwrap().main_tid();
        assert_eq!(k.lock_acquire(init, main, lock), Err(Errno::Edeadlk));
    }

    #[test]
    fn contended_lock_blocks_then_wakes() {
        let (mut k, init) = boot_with_init();
        let lock = k.register_lock(init, crate::sync::names::APP).unwrap();
        let t2 = k.spawn_thread(init).unwrap();
        let main = k.process(init).unwrap().main_tid();
        k.lock_acquire(init, main, lock).unwrap();
        assert_eq!(k.lock_acquire(init, t2, lock), Err(Errno::Ebusy));
        assert!(!k
            .process(init)
            .unwrap()
            .thread(t2)
            .unwrap()
            .is_schedulable());
        k.lock_release(init, main, lock).unwrap();
        assert!(k
            .process(init)
            .unwrap()
            .thread(t2)
            .unwrap()
            .is_schedulable());
        k.lock_acquire(init, t2, lock).unwrap();
    }

    #[test]
    fn smp_cells_share_one_pool_and_conserve_frames() {
        let cfg = MachineConfig {
            frames: 1024,
            ..Default::default()
        };
        let shared = SmpShared::new(&cfg, 2);
        let mut cells: Vec<Kernel> = (0..2)
            .map(|c| Kernel::new_smp(cfg.clone(), &shared, c))
            .collect();
        let mut pids = Vec::new();
        for k in &mut cells {
            let init = k.create_init("init").unwrap();
            let child = k.allocate_process(init, "worker").unwrap();
            let b = k
                .mmap_anon(child, 32, fpr_mem::Prot::RW, fpr_mem::Share::Private)
                .unwrap();
            k.populate(child, b, 32).unwrap();
            pids.extend([init, child]);
        }
        let unique: std::collections::BTreeSet<Pid> = pids.iter().copied().collect();
        assert_eq!(unique.len(), pids.len(), "shared pid table never collides");
        assert_eq!(shared.pids.live(), pids.len());

        // Machine-wide conservation: every frame is either free in the
        // pool or drawn by exactly one cell (resident or magazine-parked).
        let drawn: u64 = cells.iter().map(|k| k.phys.drawn_frames()).sum();
        assert_eq!(drawn + shared.pool.free_frames(), shared.pool.total_frames());

        for k in &cells {
            k.check_invariants().unwrap();
        }

        // Tearing a cell down returns its frames to the pool.
        for k in &mut cells {
            let victims: Vec<Pid> = k
                .procs
                .values()
                .filter(|p| p.ppid != p.pid) // init is its own parent
                .map(|p| p.pid)
                .collect();
            for pid in victims {
                let _ = k.kill(pid, crate::signal::Sig::Kill);
            }
            k.phys.disable_frame_cache();
        }
        let drawn_after: u64 = cells.iter().map(|k| k.phys.drawn_frames()).sum();
        assert!(
            drawn_after < drawn,
            "killing workers must return frames to the shared pool"
        );
        assert_eq!(
            drawn_after + shared.pool.free_frames(),
            shared.pool.total_frames()
        );
    }
}
