use pim_arch::{ArchError, GateKind, HLogic, MoveOp, RangeMask, ReplayRecord, VGate, WORD_BITS};

/// Rows packed into one plane word.
pub(crate) const LANE: usize = u64::BITS as usize;

/// The cells of every crossbar of one chip, stored the way the arrays are
/// built: **one bit plane per crossbar column (bitline)**, one bit per row.
///
/// Column `(reg, part)` — intra-partition offset `reg` of partition `part`,
/// i.e. bit `part` of register `reg` under the strided data format of
/// §III-C — is plane `reg · 32 + part`. A plane holds that column of every
/// crossbar back to back, 64 rows to a `u64`:
/// `bits[(plane · crossbars + xb) · ⌈rows / 64⌉ + row / 64]`, bit `row % 64`.
/// Padding bits above `rows` in a crossbar's last word are 0 and stay 0.
///
/// The paper's simulator condenses a row into 32-bit words (word `k` =
/// register `k`, bit `p` = partition `p`) because its GPU kernel gives every
/// row a thread and evaluates a partition-parallel gate as three word
/// operations. The workloads the paper reports (Figure 13, Table II) are
/// **bit-serial**, though: almost every micro-operation is one gate on one
/// column, and in the condensed format that gate reads three words and
/// rewrites one *per row* to change a single bit of it. On a CPU the plane
/// layout is the cheaper one: a gate is `out[w] &= !((a[w] | b[w]) & m[w])`
/// over the planes it names, 64 rows per word, and a partition-parallel gate
/// touches the same number of bits in either format. The price is
/// word-granular access (`Write`, `Read`, `Move`, vertical gates,
/// [`word`](Self::word)): one word is one bit in each of a register's 32
/// planes, a 32-plane gather or scatter. That price is paid per word only
/// when a word comes alone. The *other-direction* accesses of the array
/// arrive as blocks — an upload or a read-back walks the rows of a
/// register, a row move walks row pairs, a reduction's warp moves walk the
/// rows of a warp — and a block has its form over whole plane words:
///
/// * rows of one plane word written or read one after another are a 64 x 64
///   bit-matrix transpose between the word format and 32 plane words
///   (`write_rows`, `read_rows`);
/// * a row move — the source register complemented into a scratch
///   register, each row pair transferred by a vertical `NOT`, and two more
///   complements into the destination — is one pass per plane over the
///   words of the two scratch registers and the destination, a funnel
///   shift carrying the moved rows (`move_rows`);
/// * moves whose rows both advance by one are one masked copy per plane
///   from each source crossbar to its destination, whole words when the
///   rows line up, a funnel shift otherwise (`move_run`).
///
/// `PimSimulator` is handed the first two as blocks (`Backend::access`,
/// `Backend::move_rows`) and finds the third in a batch; a lone word, a
/// lone `Move`, a lone vertical gate and everything else still gather or
/// scatter.
///
/// Horizontal gates have one `NOT`/`NOR` body, over gates resolved into
/// their planes ([`ReplayRecord`]). A prepared routine's proved single
/// gates run in [`replay_plain`](Self::replay_plain), which matches the
/// selection's span width once per run instead of once per gate. Per gate
/// of FP mul (strict on, one pinned core of a 2-vCPU Xeon VM), against a
/// loop that dispatched every record: one plane word 6.6 -> 3.9 ns; a
/// two-crossbar window of a 4 x 64 chip (`serve_fused`) 11.2 -> 6.5 ns;
/// four words 14.2 -> 6.3 ns; 16 x 512 (128 words) 81 -> 71 ns. Everything
/// else goes through [`apply_gate`](Self::apply_gate); an [`HLogic`] is
/// resolved on the spot ([`apply_hlogic`](Self::apply_hlogic)).
///
/// A `Write` or an `INIT` is one block fill over the planes it names (a
/// register's 32, a strided `INIT`'s every `step`-th). FP mul holds 354
/// whole-register `INIT1`s in 11 565 operations (FP add 177 of 5 768); as
/// 32 per-plane fills each they took nearly as long as all its gates. Per
/// such fill (both bodies in one process, same host, best of 15), per-plane
/// -> block: one plane word 78 -> 60-70 ns; `serve_fused`'s window 111-116
/// -> 49-53 ns; four words 100 -> 58 ns; 16 x 512 ~1.0 µs either way.
///
/// The type holds cells only: masks, the strict flag and profiling are the
/// caller's. The stored masks reach the kernels as a [`Selection`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Crossbars {
    xbs: usize,
    rows: usize,
    /// Words per crossbar within a plane: `rows.div_ceil(64)`.
    wpx: usize,
    bits: Vec<u64>,
}

/// The cells a crossbar mask and a row mask select, as every plane sees
/// them: equally long word spans plus the bit pattern of the selected rows
/// over one span. Lowered once per mask change
/// ([`Crossbars::lower_masks`]) and shared by every gate and write until
/// the next one; a strided row mask is just a different pattern.
#[derive(Debug, Clone, Default)]
pub struct Selection {
    /// First word of each span, relative to the start of a plane.
    starts: Vec<usize>,
    /// Selected rows over one span (`pattern.len()` words).
    pattern: Vec<u64>,
    /// Row word (`row / 64`) held by the first word of a span.
    first_word: usize,
}

impl Selection {
    /// The one `NOT`/`NOR` body: runs `gates`, each given by the first words
    /// `[out, a, b]` of its planes in `bits`, one after another as
    /// `out[w] &= !((a[w] | b[w]) & m[w])` over every span, and returns how
    /// many ran. The span width is matched once per call: 1, 2, 4 or 8 words
    /// (rows of one plane word, up to 8 merged 64-row crossbars) run over
    /// `[u64; L]`, any other width over three borrowed slices.
    #[inline(always)]
    fn nor_each(&self, bits: &mut [u64], gates: impl Iterator<Item = [usize; 3]>) -> usize {
        let starts = &self.starts[..];
        match self.pattern[..] {
            [m] => nor_words(bits, starts, [m], gates),
            [m0, m1] => nor_words(bits, starts, [m0, m1], gates),
            [m0, m1, m2, m3] => nor_words(bits, starts, [m0, m1, m2, m3], gates),
            [m0, m1, m2, m3, m4, m5, m6, m7] => {
                nor_words(bits, starts, [m0, m1, m2, m3, m4, m5, m6, m7], gates)
            }
            _ => gates.fold(0, |ran, [out, a, b]| {
                for &s in starts {
                    let (out, a, b) = split3(bits, out + s, a + s, b + s, self.pattern.len());
                    let words = out.iter_mut().zip(a.iter().zip(b).zip(&self.pattern));
                    for (d, ((a, b), m)) in words {
                        *d &= !((a | b) & m);
                    }
                }
                ran + 1
            }),
        }
    }

    /// The selected spans of one plane.
    fn spans<'a>(&'a self, plane: &'a [u64]) -> impl Iterator<Item = &'a [u64]> {
        self.starts
            .iter()
            .map(move |&s| &plane[s..s + self.pattern.len()])
    }

    /// The selected cells of one plane that hold 0, OR-ed over its spans.
    fn unset(&self, plane: &[u64]) -> u64 {
        if let [m] = self.pattern[..] {
            return self
                .starts
                .iter()
                .fold(0, |unset, &s| unset | !plane[s] & m);
        }
        self.spans(plane)
            .flat_map(|span| span.iter().zip(&self.pattern))
            .fold(0, |unset, (&d, &m)| unset | !d & m)
    }
}

/// [`Selection::nor_each`] over spans of `L` words under the pattern `m`.
#[inline(always)]
fn nor_words<const L: usize>(
    bits: &mut [u64],
    starts: &[usize],
    m: [u64; L],
    gates: impl Iterator<Item = [usize; 3]>,
) -> usize {
    let nor = |bits: &mut [u64], [out, a, b]: [usize; 3], s: usize| {
        let (mut x, mut y) = ([0; L], [0; L]);
        x.copy_from_slice(&bits[a + s..][..L]);
        y.copy_from_slice(&bits[b + s..][..L]);
        for (k, d) in bits[out + s..][..L].iter_mut().enumerate() {
            *d &= !((x[k] | y[k]) & m[k]);
        }
    };
    match *starts {
        // One span (rows of one crossbar, a window of whole crossbars): no
        // loop over starts at all, which saves a third of a gate's time.
        [s] => gates.fold(0, |ran, gate| {
            nor(bits, gate, s);
            ran + 1
        }),
        _ => gates.fold(0, |ran, gate| {
            for &s in starts {
                nor(bits, gate, s);
            }
            ran + 1
        }),
    }
}

/// [`Crossbars::fill_planes`] over spans under the pattern `m`: the planes
/// to clear, then the planes to set, each by an `AND NOT` or an `OR` of `m`
/// over every span (one vector operation per word, and no branch on the
/// value of a plane).
#[inline(always)]
fn fill_words(
    bits: &mut [u64],
    starts: &[usize],
    m: &[u64],
    ([first, stride, count], values): ([usize; 3], u32),
) {
    let counted = u32::MAX >> (WORD_BITS - count);
    for (set, mut planes) in [(false, !values & counted), (true, values & counted)] {
        while planes != 0 {
            let at = first + planes.trailing_zeros() as usize * stride;
            planes &= planes - 1;
            for &s in starts {
                let span = bits[at + s..][..m.len()].iter_mut().zip(m);
                match set {
                    false => span.for_each(|(d, &m)| *d &= !m),
                    true => span.for_each(|(d, &m)| *d |= m),
                }
            }
        }
    }
}

/// Borrows `len` words at `out` mutably and `len` words at each of `a` and
/// `b` shared. The inputs may overlap each other but not the output
/// (guaranteed for the planes of a validated gate; see
/// [`Crossbars::apply_gate`]), else the slicing panics.
fn split3(
    bits: &mut [u64],
    out: usize,
    a: usize,
    b: usize,
    len: usize,
) -> (&mut [u64], &[u64], &[u64]) {
    let (below, rest) = bits.split_at_mut(out);
    let (dst, above) = rest.split_at_mut(len);
    let (below, above): (&[u64], &[u64]) = (below, above);
    let input = |at: usize| match at < out {
        true => &below[at..at + len],
        false => &above[at - out - len..at - out],
    };
    (dst, input(a), input(b))
}

/// The rows `start..=stop` that fall into plane word `w` (which must
/// overlap the range), as bits of that word.
fn row_bits(start: usize, stop: usize, w: usize) -> u64 {
    let lo = start.max(w * LANE) % LANE;
    let hi = stop.min(w * LANE + LANE - 1) % LANE;
    (u64::MAX >> (LANE - 1 - hi)) & (u64::MAX << lo)
}

/// Transposes a 64 x 64 bit matrix in place — bit `c` of `m[r]` trades
/// places with bit `r` of `m[c]` — in six rounds of block swaps (Warren,
/// *Hacker's Delight* §7-3): the off-diagonal 32 x 32 blocks first, then
/// the off-diagonal halves of every block, down to single bits.
fn transpose64(m: &mut [u64; LANE]) {
    let mut j = LANE / 2;
    let mut low = u64::MAX >> j;
    while j != 0 {
        let mut k = 0;
        while k < LANE {
            let t = ((m[k] >> j) ^ m[k + j]) & low;
            m[k] ^= t << j;
            m[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
        j /= 2;
        low ^= low << j;
    }
}

impl Crossbars {
    /// Creates `xbs` crossbars of `rows` rows × `regs` registers, all cells
    /// at logical 0.
    pub fn new(xbs: usize, rows: usize, regs: usize) -> Self {
        let wpx = rows.div_ceil(LANE);
        Crossbars {
            xbs,
            rows,
            wpx,
            bits: vec![0; regs * WORD_BITS * xbs * wpx],
        }
    }

    /// `(crossbars, rows per crossbar, registers per row)`.
    pub fn geometry(&self) -> (usize, usize, usize) {
        let regs = self.bits.len() / (WORD_BITS * self.plane_words());
        (self.xbs, self.rows, regs)
    }

    /// Words in one plane.
    fn plane_words(&self) -> usize {
        self.xbs * self.wpx
    }

    /// Where row `row` of crossbar `xb` sits in every plane: word index
    /// within the plane and bit within the word.
    fn locate(&self, xb: usize, row: usize) -> (usize, usize) {
        assert!(xb < self.xbs && row < self.rows, "cell out of geometry");
        (xb * self.wpx + row / LANE, row % LANE)
    }

    /// The 32 planes of register `reg`, partition 0 first.
    fn reg_planes(&self, reg: usize) -> impl Iterator<Item = &[u64]> {
        let ps = self.plane_words();
        self.bits[reg * WORD_BITS * ps..][..WORD_BITS * ps].chunks_exact(ps)
    }

    /// Mutable [`reg_planes`](Self::reg_planes).
    fn reg_planes_mut(&mut self, reg: usize) -> impl Iterator<Item = &mut [u64]> {
        let ps = self.plane_words();
        self.bits[reg * WORD_BITS * ps..][..WORD_BITS * ps].chunks_exact_mut(ps)
    }

    /// The word at `(crossbar, row, reg)` — register `reg` of thread `row`,
    /// gathered from the register's 32 planes.
    pub fn word(&self, xb: usize, row: usize, reg: usize) -> u32 {
        let (word, bit) = self.locate(xb, row);
        self.reg_planes(reg)
            .enumerate()
            .fold(0, |v, (part, plane)| {
                v | ((plane[word] >> bit & 1) as u32) << part
            })
    }

    /// Overwrites the word at `(crossbar, row, reg)` (memory write
    /// semantics — not a stateful-logic gate).
    pub fn set_word(&mut self, xb: usize, row: usize, reg: usize, value: u32) {
        let (word, bit) = self.locate(xb, row);
        for (part, plane) in self.reg_planes_mut(reg).enumerate() {
            plane[word] = plane[word] & !(1 << bit) | ((value >> part & 1) as u64) << bit;
        }
    }

    /// Lowers the two stored masks into `sel`, reusing its buffers.
    ///
    /// The rows become a word range plus a bit pattern; each selected
    /// crossbar contributes one span of that range. When the range covers a
    /// crossbar's whole plane and the crossbar mask is dense, neighbouring
    /// spans touch, so they merge into **one** span over all selected
    /// crossbars with the pattern repeated — a whole-tensor gate is then a
    /// single flat loop per plane.
    ///
    /// # Panics
    ///
    /// Panics if a mask reaches past the geometry (a validated mask
    /// micro-operation never does).
    pub fn lower_masks(&self, xb_mask: &RangeMask, row_mask: &RangeMask, sel: &mut Selection) {
        assert!(
            (xb_mask.stop() as usize) < self.xbs && (row_mask.stop() as usize) < self.rows,
            "mask out of geometry"
        );
        let (start, stop) = (row_mask.start() as usize, row_mask.stop() as usize);
        let (first, last) = (start / LANE, stop / LANE);
        sel.first_word = first;
        sel.pattern.clear();
        if row_mask.is_dense() {
            sel.pattern
                .extend((first..=last).map(|w| row_bits(start, stop, w)));
        } else {
            sel.pattern.resize(last - first + 1, 0);
            for row in row_mask.iter() {
                sel.pattern[row as usize / LANE - first] |= 1 << (row as usize % LANE);
            }
        }
        sel.starts.clear();
        match xb_mask.as_dense_range() {
            Some(xbs) if sel.pattern.len() == self.wpx => {
                sel.starts.push(xbs.start * self.wpx);
                let one = sel.pattern.len();
                for _ in 1..xbs.len() {
                    sel.pattern.extend_from_within(..one);
                }
            }
            _ => sel
                .starts
                .extend(xb_mask.iter().map(|xb| xb as usize * self.wpx + first)),
        }
    }

    /// Plane `index`.
    fn plane(&self, index: usize) -> &[u64] {
        let ps = self.plane_words();
        &self.bits[index * ps..][..ps]
    }

    /// Writes `value` to register `reg` of every selected row (memory write
    /// semantics): its 32 planes are set or cleared under the selection,
    /// plane `part` by bit `part` of `value`.
    pub fn write(&mut self, reg: usize, value: u32, sel: &Selection) {
        self.fill_planes(sel, [reg * WORD_BITS, 1, WORD_BITS], value);
    }

    /// Applies a horizontal stateful-logic operation to the selected cells:
    /// resolves `op` into its planes and hands it to
    /// [`apply_gate`](Self::apply_gate), checking every `NOT`/`NOR` output
    /// when `strict`. `op` must be valid for this geometry, `sel` lowered
    /// by these cells.
    ///
    /// # Errors
    ///
    /// See [`apply_gate`](Self::apply_gate).
    pub fn apply_hlogic(
        &mut self,
        op: &HLogic,
        sel: &Selection,
        strict: bool,
    ) -> Result<(), ArchError> {
        self.apply_gate(&ReplayRecord::gate(op, false), sel, strict)
    }

    /// The replay loop of a prepared batch: applies the leading records of
    /// `records` that are plain gates ([`ReplayRecord::plain`] under
    /// `strict`) and returns how many; the first other record (an `INIT`, a
    /// multi-gate or unproved gate, no gate at all) is the caller's. Nearly
    /// every operation of a bit-serial routine is such a gate on a few plane
    /// words, so the loop over records runs inside the body for the span
    /// width. `sel` must be lowered by these cells, `records` valid here.
    pub fn replay_plain(
        &mut self,
        records: &[ReplayRecord],
        sel: &Selection,
        strict: bool,
    ) -> usize {
        let ps = self.plane_words();
        let plain = records.iter().take_while(move |r| r.plain(strict));
        sel.nor_each(
            &mut self.bits,
            plain.map(move |r| Self::gate_words(r, 0, ps)),
        )
    }

    /// The first words `[out, a, b]` of the planes of concurrent gate
    /// `t · step` of `gate`, in planes of `ps` words.
    #[inline(always)]
    fn gate_words(gate: &ReplayRecord, t: usize, ps: usize) -> [usize; 3] {
        let (out, (a, b)) = (gate.out(), gate.inputs());
        [(out + t) * ps, (a + t) * ps, (b + t) * ps]
    }

    /// Applies a resolved horizontal gate to the selected cells: an `INIT`
    /// fills its planes in one pass, a `NOT`/`NOR` runs the body
    /// [`replay_plain`](Self::replay_plain) runs, once per concurrent gate.
    /// Every path but that loop lands here — a prepared replay with the
    /// records the loop leaves, the rest through
    /// [`apply_hlogic`](Self::apply_hlogic). A routine's gate on one plane
    /// word cost 6.6 ns when every record came here, 3.9 ns in the loop. An
    /// `INIT` is one fill over all its planes: ~50 ns for a whole register
    /// on `serve_fused`'s window, ~113 ns as the 32 per-plane fills it was.
    ///
    /// Gates are evaluated one after another, which equals the simultaneous
    /// semantics: [`HLogic::validate`] forbids an input that is its own
    /// gate's output and keeps concurrent sections disjoint, so no gate
    /// reads a column another gate of the operation writes.
    ///
    /// `gate` must be the record of a gate valid for this geometry, `sel`
    /// lowered by these cells.
    ///
    /// # Errors
    ///
    /// With `check`, returns [`ArchError::Protocol`] if a `NOT`/`NOR`
    /// output cell does not hold logical 1 when the gate fires (a missing
    /// initialization in the driver). The check runs over every gate
    /// *before* any cell changes, for every mask shape: a failure leaves
    /// the cells untouched and names the lowest offending row. Strict
    /// callers pass `check = false` only for a gate whose batch proved it
    /// ([`ReplayRecord::armed`]).
    pub fn apply_gate(
        &mut self,
        gate: &ReplayRecord,
        sel: &Selection,
        check: bool,
    ) -> Result<(), ArchError> {
        if gate.kind().inputs() == 0 {
            let ones = u32::MAX * u32::from(gate.kind() == GateKind::Init1);
            self.fill_planes(sel, [gate.out(), gate.step(), gate.gates()], ones);
        } else if check && self.outputs_unset(gate, sel) {
            return Err(self.unset_output(gate, sel));
        } else {
            let (step, ps) = (gate.step(), self.plane_words());
            let gates = (0..gate.gates()).map(|t| Self::gate_words(gate, t * step, ps));
            sel.nor_each(&mut self.bits, gates);
        }
        Ok(())
    }

    /// The output planes of `gate`.
    fn outputs(gate: &ReplayRecord) -> impl Iterator<Item = usize> {
        let (out, step) = (gate.out(), gate.step());
        (0..gate.gates()).map(move |t| out + t * step)
    }

    /// The one fill body, behind `Write` and `INIT`: sets or clears the
    /// selected cells of `count` planes from `first`, `step` apart, plane
    /// `t` by bit `t` of `values`. The span width is matched once per run,
    /// as in [`replay_plain`](Self::replay_plain): a 1-, 2-, 4- or 8-word
    /// pattern is a constant-length array, so a register's fill is one
    /// tight loop over `32 x L` words.
    #[inline(never)]
    fn fill_planes(&mut self, sel: &Selection, [first, step, count]: [usize; 3], values: u32) {
        let ps = self.plane_words();
        let (bits, starts) = (&mut self.bits[..], &sel.starts[..]);
        let run = ([first * ps, step * ps, count], values);
        match sel.pattern[..] {
            [m] => fill_words(bits, starts, &[m], run),
            [m0, m1] => fill_words(bits, starts, &[m0, m1], run),
            [m0, m1, m2, m3] => fill_words(bits, starts, &[m0, m1, m2, m3], run),
            [m0, m1, m2, m3, m4, m5, m6, m7] => {
                fill_words(bits, starts, &[m0, m1, m2, m3, m4, m5, m6, m7], run)
            }
            _ => fill_words(bits, starts, &sel.pattern, run),
        }
    }

    /// The strict check: whether a selected output cell of `gate` holds 0 —
    /// one OR-fold of `!out[w] & m[w]` over the gates; only a failure pays
    /// for finding the row.
    #[inline(never)]
    fn outputs_unset(&self, gate: &ReplayRecord, sel: &Selection) -> bool {
        Self::outputs(gate).fold(0, |unset, plane| unset | sel.unset(self.plane(plane))) != 0
    }

    /// The strict failure report: the lowest row in which an output cell of
    /// `gate` that `sel` selects does not hold 1.
    #[cold]
    fn unset_output(&self, gate: &ReplayRecord, sel: &Selection) -> ArchError {
        let row = Self::outputs(gate)
            .flat_map(|plane| sel.spans(self.plane(plane)))
            .flat_map(|span| span.iter().zip(&sel.pattern).enumerate())
            .filter(|&(_, (&d, &m))| !d & m != 0)
            .map(|(i, (&d, &m))| {
                (sel.first_word + i) % self.wpx * LANE + (!d & m).trailing_zeros() as usize
            })
            .min()
            .unwrap_or(0);
        ArchError::Protocol {
            reason: format!(
                "stateful {:?} gate in row {row} writes to partition bits {:#010x} of register {} \
                 that were not initialized to 1",
                gate.kind(),
                Self::outputs(gate).fold(0u32, |bits, plane| bits | 1 << (plane % WORD_BITS)),
                gate.out() / WORD_BITS
            ),
        }
    }

    /// Applies a vertical stateful-logic operation in every crossbar of
    /// `xb_mask`: gate from `row_in` to `row_out` at the columns whose
    /// intra-partition index equals `reg` (one whole register — 32 cells —
    /// per crossbar).
    ///
    /// # Errors
    ///
    /// In strict mode, returns [`ArchError::Protocol`] if a `NOT` output
    /// cell does not hold logical 1, before any cell changes.
    pub fn apply_vlogic(
        &mut self,
        gate: VGate,
        (row_in, row_out): (usize, usize),
        reg: usize,
        xb_mask: &RangeMask,
        strict: bool,
    ) -> Result<(), ArchError> {
        let xbs = || xb_mask.iter().map(|xb| xb as usize);
        if strict && gate == VGate::Not {
            if let Some(found) = xbs()
                .map(|xb| self.word(xb, row_out, reg))
                .find(|&w| w != u32::MAX)
            {
                return Err(ArchError::Protocol {
                    reason: format!(
                        "vertical NOT into row {row_out}, register {reg}: output cells not \
                         initialized to 1 (found {found:#010x})"
                    ),
                });
            }
        }
        for xb in xbs() {
            let ((src, src_bit), (dst, dst_bit)) =
                (self.locate(xb, row_in), self.locate(xb, row_out));
            for plane in self.reg_planes_mut(reg) {
                match gate {
                    VGate::Init0 => plane[dst] &= !(1 << dst_bit),
                    VGate::Init1 => plane[dst] |= 1 << dst_bit,
                    VGate::Not => plane[dst] &= !((plane[src] >> src_bit & 1) << dst_bit),
                }
            }
        }
        Ok(())
    }

    /// Distributed move: every crossbar of `xb_mask` sends its word at
    /// `(row_src, index_src)` to `(row_dst, index_dst)` of the crossbar
    /// `dist` away. All sources are gathered into `scratch` before any
    /// destination is written, so a destination that is also a source still
    /// sends its old word. The caller has planned the move (destinations in
    /// range).
    pub fn move_words(&mut self, mv: &MoveOp, xb_mask: &RangeMask, scratch: &mut Vec<u32>) {
        let (row, reg) = (mv.row_src as usize, mv.index_src as usize);
        scratch.clear();
        scratch.extend(xb_mask.iter().map(|src| self.word(src as usize, row, reg)));
        let (row, reg) = (mv.row_dst as usize, mv.index_dst as usize);
        for (src, &value) in xb_mask.iter().zip(scratch.iter()) {
            self.set_word((src as i64 + mv.dist as i64) as usize, row, reg, value);
        }
    }

    /// Block form of a run of single-row writes to register `reg` inside
    /// plane word `word` (rows `64 · word ..`) of every crossbar of
    /// `xb_mask`: `values[r]` is the word for row `64 · word + r`, `written`
    /// has bit `r` set for the rows the run wrote (the other entries of
    /// `values` must be 0). One transpose turns the words into the 32 plane
    /// words they occupy, then each plane takes one masked store per
    /// crossbar — equal to [`set_word`](Self::set_word) row by row.
    pub(crate) fn write_rows(
        &mut self,
        reg: usize,
        word: usize,
        mut values: [u64; LANE],
        written: u64,
        xb_mask: &RangeMask,
    ) {
        assert!(
            (xb_mask.stop() as usize) < self.xbs && word < self.wpx,
            "cell out of geometry"
        );
        transpose64(&mut values);
        let wpx = self.wpx;
        for (plane, &column) in self.reg_planes_mut(reg).zip(&values) {
            for xb in xb_mask.iter() {
                let at = xb as usize * wpx + word;
                plane[at] = plane[at] & !written | column;
            }
        }
    }

    /// Block form of a run of reads: register `reg` of the 64 rows of plane
    /// word `word` of crossbar `xb`, entry `r` holding the word of row
    /// `64 · word + r` — the inverse gather of `write_rows`, equal to
    /// [`word`](Self::word) row by row.
    pub(crate) fn read_rows(&self, xb: usize, word: usize, reg: usize) -> [u64; LANE] {
        assert!(xb < self.xbs && word < self.wpx, "cell out of geometry");
        let mut values = [0; LANE];
        for (column, plane) in values.iter_mut().zip(self.reg_planes(reg)) {
            *column = plane[xb * self.wpx + word];
        }
        transpose64(&mut values);
        values
    }

    /// Block form of [`RowMove::expand`](pim_arch::RowMove::expand) in
    /// every crossbar of `xb_mask`, for a move whose row sets share their
    /// step (or hold one row each): `regs` is `[src, t1, t2, dst]`. With
    /// `moved[r] = old src[r - shift]` on the destination rows `B` and the
    /// source rows `A`, the expansion leaves `t1 = moved` on `B`, `!src` on
    /// `A` less `B`; `t2 = !moved` and `dst = moved` on `B`; every other
    /// cell as it was. Per plane that is one pass over the words the row
    /// sets touch in each crossbar — one span over whole neighbouring
    /// crossbars, as in [`lower_masks`](Self::lower_masks) — with the
    /// source words copied first, so `dst` may be `src` (`t1` and `t2` are
    /// neither). A moved bit comes from its own crossbar: a source row
    /// lies in the same span, and the bits a funnel shift pulls in from a
    /// neighbour fall outside `B`.
    ///
    /// The caller has checked the move: registers and rows in the
    /// geometry, equal lengths, a non-zero shift.
    #[inline(never)]
    pub(crate) fn move_rows(
        &mut self,
        regs: [usize; 4],
        (src_rows, dst_rows): (&RangeMask, &RangeMask),
        xb_mask: &RangeMask,
        scratch: &mut Vec<u64>,
    ) {
        let (wpx, ps) = (self.wpx, self.plane_words());
        let lo = src_rows.start().min(dst_rows.start()) as usize / LANE;
        let hi = src_rows.stop().max(dst_rows.stop()) as usize / LANE;
        let merged = xb_mask.as_dense_range().filter(|_| hi - lo + 1 == wpx);
        let len = merged.as_ref().map_or(hi - lo + 1, |xbs| xbs.len() * wpx);
        // Output word `i` of a span takes source words `i + k` and
        // `i + k + 1`, shifted right by `r`; `pad` zero words on either
        // side keep both inside the copy.
        let shift = dst_rows.start() as isize - src_rows.start() as isize;
        let (k, r) = (
            (-shift).div_euclid(LANE as isize),
            (-shift).rem_euclid(LANE as isize),
        );
        let pad = k.unsigned_abs() + 1;
        scratch.clear();
        scratch.resize(4 * len + 2 * pad, 0);
        let (a, rest) = scratch.split_at_mut(len);
        let (b, rest) = rest.split_at_mut(len);
        let (moved, old) = rest.split_at_mut(len);
        for (pattern, rows) in [(&mut *a, src_rows), (&mut *b, dst_rows)] {
            let (start, stop) = (rows.start() as usize, rows.stop() as usize);
            if rows.is_dense() {
                for w in start / LANE..=stop / LANE {
                    pattern[w - lo] = row_bits(start, stop, w);
                }
            } else {
                for row in rows.iter() {
                    pattern[row as usize / LANE - lo] |= 1 << (row as usize % LANE);
                }
            }
            for xb in 1..len / wpx {
                pattern.copy_within(..wpx, xb * wpx);
            }
        }
        let (a, b) = (&*a, &*b);
        let bits = &mut self.bits;
        for part in 0..WORD_BITS {
            let [s, t1, t2, d] = regs.map(|reg| (reg * WORD_BITS + part) * ps);
            let mut span = |start: usize| {
                old[pad..pad + len].copy_from_slice(&bits[s + start..][..len]);
                for (i, m) in moved.iter_mut().enumerate() {
                    let q = (i + pad).wrapping_add_signed(k);
                    let two = u128::from(old[q + 1]) << LANE | u128::from(old[q]);
                    *m = (two >> r) as u64 & b[i];
                }
                let (old, moved) = (&old[pad..pad + len], &*moved);
                let sources = old.iter().zip(a).zip(b.iter().zip(moved));
                for (x, ((&o, &ma), (&mb, &mv))) in
                    bits[t1 + start..][..len].iter_mut().zip(sources)
                {
                    *x = *x & !(ma | mb) | !o & ma & !mb | mv;
                }
                for (x, (&mb, &mv)) in bits[t2 + start..][..len]
                    .iter_mut()
                    .zip(b.iter().zip(moved))
                {
                    *x = *x & !mb | !mv & mb;
                }
                for (x, (&mb, &mv)) in bits[d + start..][..len].iter_mut().zip(b.iter().zip(moved))
                {
                    *x = *x & !mb | mv;
                }
            };
            match &merged {
                Some(xbs) => span(xbs.start * wpx),
                None => xb_mask.iter().for_each(|xb| span(xb as usize * wpx + lo)),
            }
        }
    }

    /// Block form of `n` moves in a row ([`move_words`](Self::move_words)):
    /// move `k` is `mv` with both rows advanced by `k`. Every crossbar of
    /// `xb_mask` sends rows `row_src..row_src + n` of register `index_src`
    /// to rows `row_dst..` of `index_dst` in the crossbar `dist` away — per
    /// plane one masked copy of the rows' words, whole words when the two
    /// row ranges line up in their words, a funnel shift otherwise. The
    /// caller has planned the moves: destinations in range, and no
    /// destination crossbar is a source (the H-tree rule), so no move
    /// reads what another wrote.
    #[inline(never)]
    pub(crate) fn move_run(&mut self, mv: &MoveOp, n: usize, xb_mask: &RangeMask) {
        let (wpx, ps) = (self.wpx, self.plane_words());
        let (row_src, row_dst) = (mv.row_src as usize, mv.row_dst as usize);
        assert!(
            row_src + n <= self.rows && row_dst + n <= self.rows,
            "cell out of geometry"
        );
        let shift = row_dst as isize - row_src as isize;
        let last = row_dst + n - 1;
        let (regs_src, regs_dst) = (mv.index_src as usize, mv.index_dst as usize);
        for part in 0..WORD_BITS {
            let s = (regs_src * WORD_BITS + part) * ps;
            let d = (regs_dst * WORD_BITS + part) * ps;
            for xb in xb_mask.iter() {
                let from = s + xb as usize * wpx;
                let to = d + (xb as i64 + i64::from(mv.dist)) as usize * wpx;
                for w in row_dst / LANE..=last / LANE {
                    let m = row_bits(row_dst, last, w);
                    let moved = funnel(&self.bits[from..from + wpx], w, shift);
                    self.bits[to + w] = self.bits[to + w] & !m | moved & m;
                }
            }
        }
    }
}

/// Plane word `w` of one crossbar's words `old` shifted by `shift` rows:
/// bit `r` holds row `64 · w + r - shift` of `old`, 0 off the crossbar.
#[inline(always)]
fn funnel(old: &[u64], w: usize, shift: isize) -> u64 {
    let word = |q: isize| usize::try_from(q).map_or(0, |q| old.get(q).copied().unwrap_or(0));
    let from = (w * LANE) as isize - shift;
    let (q, r) = (
        from.div_euclid(LANE as isize),
        from.rem_euclid(LANE as isize),
    );
    match r {
        0 => word(q),
        r => word(q) >> r | word(q + 1) << (LANE as isize - r),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_arch::{ColAddr, MicroOp, PimConfig, RowMove};
    use proptest::prelude::*;

    fn cfg() -> PimConfig {
        PimConfig::small()
    }

    /// Cell-level access, the reference the word-level kernels are held to.
    impl Crossbars {
        /// Reads the single cell at `(crossbar, row, partition, offset)`.
        fn cell(&self, xb: usize, row: usize, part: u8, offset: u8) -> bool {
            let (word, bit) = self.locate(xb, row);
            let plane = offset as usize * WORD_BITS + part as usize;
            self.bits[plane * self.plane_words() + word] >> bit & 1 == 1
        }

        /// Writes the single cell at `(crossbar, row, partition, offset)`.
        fn set_cell(&mut self, xb: usize, row: usize, part: u8, offset: u8, value: bool) {
            let (word, bit) = self.locate(xb, row);
            let at = (offset as usize * WORD_BITS + part as usize) * self.plane_words() + word;
            self.bits[at] = self.bits[at] & !(1 << bit) | (value as u64) << bit;
        }
    }

    /// One crossbar of `cfg`'s dimensions.
    fn one(cfg: &PimConfig) -> Crossbars {
        Crossbars::new(1, cfg.rows, cfg.regs)
    }

    fn lower(cells: &Crossbars, xbs: RangeMask, rows: RangeMask) -> Selection {
        let mut sel = Selection::default();
        cells.lower_masks(&xbs, &rows, &mut sel);
        sel
    }

    /// `rows` of the only crossbar of a one-crossbar chip.
    fn rows_of(cells: &Crossbars, rows: RangeMask) -> Selection {
        lower(cells, RangeMask::single(0), rows)
    }

    fn full_rows(cfg: &PimConfig) -> RangeMask {
        RangeMask::dense(0, cfg.rows as u32).unwrap()
    }

    /// Padding bits above `rows` in the last word of every crossbar of
    /// every plane are 0.
    fn assert_padding_clear(cells: &Crossbars) {
        let used = cells.rows % LANE;
        if used == 0 {
            return;
        }
        for (i, xb) in cells.bits.chunks_exact(cells.wpx).enumerate() {
            assert_eq!(
                xb[cells.wpx - 1] >> used,
                0,
                "padding set in plane/crossbar slot {i}"
            );
        }
    }

    #[test]
    fn word_layout_matches_cells() {
        let mut xb = Crossbars::new(2, 4, 32);
        xb.set_word(1, 2, 5, 0b1010);
        assert!(!xb.cell(1, 2, 0, 5));
        assert!(xb.cell(1, 2, 1, 5));
        assert!(!xb.cell(1, 2, 2, 5));
        assert!(xb.cell(1, 2, 3, 5));
        xb.set_cell(1, 2, 0, 5, true);
        assert_eq!(xb.word(1, 2, 5), 0b1011);
        xb.set_cell(1, 2, 3, 5, false);
        assert_eq!(xb.word(1, 2, 5), 0b0011);
        // The other crossbar, the other rows and the other registers of the
        // same planes are untouched.
        assert_eq!(xb.word(0, 2, 5), 0);
        assert_eq!(xb.word(1, 1, 5), 0);
        assert_eq!(xb.word(1, 2, 4), 0);
        assert_eq!(xb.geometry(), (2, 4, 32));
    }

    #[test]
    fn init_gates_set_whole_register() {
        let c = cfg();
        let mut xb = one(&c);
        let rows = rows_of(&xb, full_rows(&c));
        let init1 = HLogic::init_reg(true, 3, &c).unwrap();
        xb.apply_hlogic(&init1, &rows, true).unwrap();
        assert!(xb.word(0, 0, 3) == u32::MAX && xb.word(0, c.rows - 1, 3) == u32::MAX);
        let init0 = HLogic::init_reg(false, 3, &c).unwrap();
        xb.apply_hlogic(&init0, &rows, true).unwrap();
        assert_eq!(xb.word(0, 5, 3), 0);
    }

    #[test]
    fn parallel_nor_computes_per_partition() {
        let c = cfg();
        let mut xb = one(&c);
        let rows = rows_of(&xb, full_rows(&c));
        xb.set_word(0, 1, 0, 0x0F0F_3355);
        xb.set_word(0, 1, 1, 0x00FF_0F55);
        xb.apply_hlogic(&HLogic::init_reg(true, 2, &c).unwrap(), &rows, true)
            .unwrap();
        xb.apply_hlogic(
            &HLogic::parallel(GateKind::Nor, 0, 1, 2, &c).unwrap(),
            &rows,
            true,
        )
        .unwrap();
        assert_eq!(xb.word(0, 1, 2), !(0x0F0F_3355u32 | 0x00FF_0F55));
        // Unselected rows saw the same ops (full mask) — NOR of zeros is 1.
        assert_eq!(xb.word(0, 0, 2), u32::MAX);
    }

    #[test]
    fn row_mask_limits_logic() {
        let c = cfg();
        let mut xb = one(&c);
        let even = rows_of(&xb, RangeMask::new(0, c.rows as u32 - 2, 2).unwrap());
        xb.apply_hlogic(&HLogic::init_reg(true, 0, &c).unwrap(), &even, true)
            .unwrap();
        assert_eq!(xb.word(0, 0, 0), u32::MAX);
        assert_eq!(xb.word(0, 1, 0), 0);
        assert_eq!(xb.word(0, 2, 0), u32::MAX);
    }

    #[test]
    fn partial_dense_mask_limits_logic() {
        // A dense sub-range must only touch its rows, also when it
        // straddles a plane-word boundary (rows 60..70 of 96).
        let c = cfg().with_rows(96);
        for range in [10..20, 60..70] {
            let mut xb = one(&c);
            let mid = rows_of(&xb, RangeMask::dense(range.start, range.end).unwrap());
            xb.apply_hlogic(&HLogic::init_reg(true, 0, &c).unwrap(), &mid, true)
                .unwrap();
            for row in 0..c.rows {
                let expect = range.contains(&(row as u32));
                assert_eq!(xb.word(0, row, 0) == u32::MAX, expect, "row {row}");
            }
        }
    }

    /// Dense and strided row masks for the strict-mode tests: the failure
    /// contract is the same for every mask shape.
    fn strict_masks(c: &PimConfig) -> [RangeMask; 2] {
        [
            full_rows(c),
            RangeMask::new(1, c.rows as u32 - 1, 2).unwrap(),
        ]
    }

    #[test]
    fn strict_mode_catches_missing_init() {
        let c = cfg();
        for mask in strict_masks(&c) {
            let mut xb = one(&c);
            let rows = rows_of(&xb, mask);
            // Every second row carries input ones, so a non-strict run
            // would change cells.
            xb.write(0, u32::MAX, &rows);
            let before = xb.clone();
            let not = HLogic::parallel(GateKind::Not, 0, 0, 1, &c).unwrap();
            let err = xb.apply_hlogic(&not, &rows, true).unwrap_err();
            assert!(matches!(err, ArchError::Protocol { .. }));
            // The pre-scan fails *before* mutating: state is untouched.
            assert_eq!(xb, before, "{mask:?}");
            // Non-strict mode performs the (possibly wrong) stateful update.
            xb.apply_hlogic(&not, &rows, false).unwrap();
        }
    }

    #[test]
    fn strict_prescan_reports_first_bad_row() {
        let c = cfg();
        for mask in strict_masks(&c) {
            let mut xb = one(&c);
            let rows = rows_of(&xb, mask);
            xb.apply_hlogic(&HLogic::init_reg(true, 1, &c).unwrap(), &rows, true)
                .unwrap();
            // Cleared output cells in rows 41 and 13 (both selected by
            // either mask), found by different gates: the lower row wins.
            xb.set_word(0, 41, 1, 0xFFFF_FFFE);
            xb.set_word(0, 13, 1, 0x7FFF_FFFF);
            xb.set_word(0, 7, 0, u32::MAX); // inputs that would clear row 7
            let before = xb.clone();
            let not = HLogic::parallel(GateKind::Not, 0, 0, 1, &c).unwrap();
            let err = xb.apply_hlogic(&not, &rows, true).unwrap_err();
            match err {
                ArchError::Protocol { reason } => {
                    assert!(reason.contains("row 13 "), "{mask:?}: {reason}");
                }
                other => panic!("unexpected error {other:?}"),
            }
            assert_eq!(xb, before, "{mask:?}: a strict failure changed cells");
        }
    }

    #[test]
    fn strict_failure_names_the_row_within_its_crossbar() {
        // Merged spans run over several crossbars: the reported row is the
        // row inside the offending crossbar, not a position in the span.
        let c = cfg().with_rows(130);
        let mut chip = Crossbars::new(3, c.rows, c.regs);
        let all = lower(&chip, RangeMask::dense(0, 3).unwrap(), full_rows(&c));
        chip.apply_hlogic(&HLogic::init_reg(true, 1, &c).unwrap(), &all, true)
            .unwrap();
        chip.set_cell(2, 129, 4, 1, false);
        let not = HLogic::parallel(GateKind::Not, 0, 0, 1, &c).unwrap();
        let err = chip.apply_hlogic(&not, &all, true).unwrap_err();
        assert!(err.to_string().contains("row 129 "), "{err}");
    }

    #[test]
    fn stateful_not_only_clears() {
        let c = cfg();
        let mut xb = one(&c);
        let rows = rows_of(&xb, full_rows(&c));
        xb.set_word(0, 0, 0, 0xAAAA_AAAA);
        xb.apply_hlogic(&HLogic::init_reg(true, 1, &c).unwrap(), &rows, true)
            .unwrap();
        let not = HLogic::parallel(GateKind::Not, 0, 0, 1, &c).unwrap();
        xb.apply_hlogic(&not, &rows, true).unwrap();
        assert_eq!(xb.word(0, 0, 1), 0x5555_5555);
        // Applying the same NOT again (non-strict: outputs now partially 0)
        // cannot switch any cell back to 1.
        xb.apply_hlogic(&not, &rows, false).unwrap();
        assert_eq!(xb.word(0, 0, 1), 0x5555_5555);
    }

    #[test]
    fn not_reads_only_its_first_input() {
        // `HLogic`'s fields are public and `validate` checks only the inputs
        // a gate reads: a NOT whose `in_b` was never canonicalized (here it
        // names the output column) behaves like the canonical one.
        let c = cfg();
        let canonical = HLogic::parallel(GateKind::Not, 0, 0, 1, &c).unwrap();
        let odd = HLogic {
            in_b: canonical.out,
            ..canonical.clone()
        };
        odd.validate(&c).unwrap();
        let mut xb = one(&c);
        let rows = rows_of(&xb, full_rows(&c));
        xb.set_word(0, 3, 0, 0x0F0F_0F0F);
        xb.apply_hlogic(&HLogic::init_reg(true, 1, &c).unwrap(), &rows, true)
            .unwrap();
        let mut expect = xb.clone();
        expect.apply_hlogic(&canonical, &rows, true).unwrap();
        xb.apply_hlogic(&odd, &rows, true).unwrap();
        assert_eq!(xb, expect);
        assert_eq!(xb.word(0, 3, 1), 0xF0F0_F0F0);
    }

    #[test]
    fn cross_partition_shift_pattern() {
        // NOT from partition p to p+1 for even p: out bits odd partitions.
        let c = cfg();
        let mut xb = one(&c);
        let rows = rows_of(&xb, full_rows(&c));
        xb.set_word(0, 0, 0, 0x0000_FFFF);
        xb.apply_hlogic(&HLogic::init_reg(true, 1, &c).unwrap(), &rows, true)
            .unwrap();
        let op = HLogic::strided(
            GateKind::Not,
            ColAddr::new(0, 0),
            ColAddr::new(0, 0),
            ColAddr::new(1, 1),
            31,
            2,
            &c,
        )
        .unwrap();
        xb.apply_hlogic(&op, &rows, true).unwrap();
        // Output bits: odd partitions p+1 receive NOT(bit p).
        // Input bits 0,2,..,14 are 1 -> outputs 1,3,..,15 become 0.
        // Input bits 16,18,..,30 are 0 -> outputs 17,..,31 stay 1.
        // Even output bits untouched (still 1 from init).
        let w = xb.word(0, 0, 1);
        for p in 0..32u32 {
            let expect = if p % 2 == 1 { p >= 16 } else { true };
            assert_eq!(w >> p & 1 == 1, expect, "partition {p}");
        }
    }

    #[test]
    fn self_aliased_gates_read_pre_gate_state() {
        // Output register == input register (different partitions): every
        // gate must read the pre-operation cells, under a dense mask and
        // under the two strided masks that cover the same rows.
        let c = cfg();
        let op = HLogic::strided(
            GateKind::Not,
            ColAddr::new(0, 4),
            ColAddr::new(0, 4),
            ColAddr::new(1, 4), // same offset 4: out aliases in_a
            31,
            2,
            &c,
        )
        .unwrap();
        let mut dense = one(&c);
        for row in 0..c.rows {
            dense.set_word(0, row, 4, 0x9E37_79B9u32.wrapping_mul(row as u32 + 1));
        }
        let pre = dense.clone();
        let mut strided = dense.clone();
        let all = rows_of(&dense, full_rows(&c));
        dense.apply_hlogic(&op, &all, false).unwrap();
        for start in [0, 1] {
            let half = RangeMask::new(start, c.rows as u32 - 2 + start, 2).unwrap();
            let half = rows_of(&strided, half);
            strided.apply_hlogic(&op, &half, false).unwrap();
        }
        assert_eq!(dense, strided);
        for row in 0..c.rows {
            let w = pre.word(0, row, 4);
            let cleared = (w & 0x5555_5555) << 1; // odd partitions whose left neighbour is 1
            assert_eq!(dense.word(0, row, 4), w & !cleared, "row {row}");
        }
    }

    #[test]
    fn vertical_ops_move_registers_between_rows() {
        let c = cfg();
        let mut xb = one(&c);
        let only = RangeMask::single(0);
        xb.set_word(0, 7, 4, 0x1234_5678);
        xb.apply_vlogic(VGate::Init1, (0, 9), 4, &only, true)
            .unwrap();
        xb.apply_vlogic(VGate::Not, (7, 9), 4, &only, true).unwrap();
        assert_eq!(xb.word(0, 9, 4), !0x1234_5678);
        // Second NOT through another register restores the value.
        xb.apply_vlogic(VGate::Init1, (0, 11), 4, &only, true)
            .unwrap();
        xb.apply_vlogic(VGate::Not, (9, 11), 4, &only, true)
            .unwrap();
        assert_eq!(xb.word(0, 11, 4), 0x1234_5678);
        // Strict vertical NOT without init fails.
        assert!(xb
            .apply_vlogic(VGate::Not, (7, 12), 4, &only, true)
            .is_err());
        xb.apply_vlogic(VGate::Init0, (0, 12), 4, &only, true)
            .unwrap();
        assert_eq!(xb.word(0, 12, 4), 0);
    }

    #[test]
    fn strict_vertical_failure_leaves_every_crossbar_untouched() {
        let c = cfg();
        let mut chip = Crossbars::new(3, c.rows, c.regs);
        let all = RangeMask::dense(0, 3).unwrap();
        for xb in 0..3 {
            chip.set_word(xb, 7, 4, 0xFFFF_0000);
        }
        chip.apply_vlogic(VGate::Init1, (0, 9), 4, &all, true)
            .unwrap();
        chip.set_word(2, 9, 4, 0xFFFF_FF7F); // only the last crossbar is unprepared
        let before = chip.clone();
        let err = chip
            .apply_vlogic(VGate::Not, (7, 9), 4, &all, true)
            .unwrap_err();
        assert!(err.to_string().contains("0xffffff7f"), "{err}");
        assert_eq!(chip, before);
    }

    #[test]
    fn write_rows_covers_dense_and_strided() {
        let c = cfg();
        let mut xb = one(&c);
        let dense = rows_of(&xb, RangeMask::dense(4, 10).unwrap());
        let strided = rows_of(&xb, RangeMask::new(1, 61, 4).unwrap());
        xb.write(3, 0xAB, &dense);
        xb.write(5, 0xCD, &strided);
        for row in 0..c.rows {
            assert_eq!(
                xb.word(0, row, 3) == 0xAB,
                (4..10).contains(&row),
                "row {row}"
            );
            assert_eq!(xb.word(0, row, 5) == 0xCD, row % 4 == 1, "row {row}");
        }
    }

    #[test]
    fn moves_gather_every_source_before_scattering() {
        // Crossbar 1 is both a destination (of 0) and a source (for 2): it
        // must send the word it held before the move.
        let mut chip = Crossbars::new(3, 8, 4);
        chip.set_word(0, 5, 1, 0xAAAA_0001);
        chip.set_word(1, 5, 1, 0xBBBB_0002);
        let mv = MoveOp {
            dist: 1,
            row_src: 5,
            row_dst: 5,
            index_src: 1,
            index_dst: 1,
        };
        let mut scratch = vec![7; 9]; // stale contents are discarded
        chip.move_words(&mv, &RangeMask::dense(0, 2).unwrap(), &mut scratch);
        assert_eq!(chip.word(1, 5, 1), 0xAAAA_0001);
        assert_eq!(chip.word(2, 5, 1), 0xBBBB_0002);
        assert_eq!(scratch.len(), 2);
    }

    #[test]
    fn transpose_matches_the_double_loop() {
        let mut noise = 0x9E37_79B9_7F4A_7C15u64;
        for round in 0..8 {
            let mut m = [0u64; LANE];
            for row in &mut m {
                noise ^= noise << 13;
                noise ^= noise >> 7;
                noise ^= noise << 17;
                // Sparse, dense and word-format (32 columns) matrices.
                *row = match round % 3 {
                    0 => noise,
                    1 => noise & noise.rotate_left(21) & noise.rotate_left(42),
                    _ => noise >> 32,
                };
            }
            let mut want = [0u64; LANE];
            for (r, row) in m.iter().enumerate() {
                for (c, column) in want.iter_mut().enumerate() {
                    *column |= (row >> c & 1) << r;
                }
            }
            let mut got = m;
            transpose64(&mut got);
            assert_eq!(got, want, "round {round}");
            transpose64(&mut got);
            assert_eq!(got, m, "transposing twice is the identity");
        }
    }

    /// A chip of `xbs` crossbars with distinct noise in registers 0..3.
    fn noisy(xbs: usize, rows: usize, seed: u32) -> Crossbars {
        let mut chip = Crossbars::new(xbs, rows, 4);
        let mut noise = seed | 1;
        for xb in 0..xbs {
            for row in 0..rows {
                for reg in 0..3 {
                    noise ^= noise << 13;
                    noise ^= noise >> 17;
                    noise ^= noise << 5;
                    chip.set_word(xb, row, reg, noise);
                }
            }
        }
        chip
    }

    /// Every crossbar, every second one, the last one — over 1 to 3
    /// crossbars.
    fn xb_masks(xbs: usize) -> Vec<RangeMask> {
        let last = xbs as u32 - 1;
        vec![
            RangeMask::dense(0, xbs as u32).unwrap(),
            RangeMask::new(0, last - last % 2, 2).unwrap(),
            RangeMask::single(last),
        ]
    }

    /// `write_rows` and `read_rows` against `set_word`/`word` loops: row
    /// subsets that start and end mid-word, in every plane word, written to
    /// strided crossbar sets; whole images compared, so unwritten rows,
    /// other registers, other crossbars and the padding are held too.
    #[test]
    fn row_block_access_matches_word_loops() {
        for (xbs, rows) in [(1, 4), (2, 64), (3, 96), (2, 200)] {
            for xb_mask in xb_masks(xbs) {
                let mut fast = noisy(xbs, rows, (rows * 31 + xbs) as u32);
                let mut slow = fast.clone();
                let mut noise = 0xC0FF_EE11u32;
                for word in 0..rows.div_ceil(LANE) {
                    let in_word = (rows - word * LANE).min(LANE);
                    // First..last row of the subset within the word, and a
                    // stride: dense, every third row, a single row.
                    for (first, last, step) in [
                        (0, in_word - 1, 1),
                        (in_word / 3, in_word - 1 - in_word / 4, 1),
                        (1 % in_word, in_word - 1, 3),
                        (in_word / 2, in_word / 2, 1),
                    ] {
                        let (mut values, mut written) = ([0u64; LANE], 0u64);
                        for r in (first..=last).step_by(step) {
                            noise = noise.wrapping_mul(0x9E37_79B9).wrapping_add(r as u32);
                            values[r] = u64::from(noise);
                            written |= 1 << r;
                            for xb in xb_mask.iter() {
                                slow.set_word(xb as usize, word * LANE + r, 1, noise);
                            }
                        }
                        fast.write_rows(1, word, values, written, &xb_mask);
                        assert!(fast == slow, "{xbs}x{rows} word {word} {xb_mask:?}");
                    }
                    for xb in 0..xbs {
                        let got = fast.read_rows(xb, word, 1);
                        for (r, &value) in got.iter().enumerate() {
                            let want = match r < in_word {
                                true => slow.word(xb, word * LANE + r, 1),
                                false => 0, // padding rows read as 0
                            };
                            assert_eq!(value, u64::from(want), "xb {xb} word {word} row {r}");
                        }
                    }
                }
                assert_padding_clear(&fast);
            }
        }
    }

    /// `move_rows` against the expansion it stands for, applied op by op
    /// (`INIT1` and a vertical `NOT` per pair, ordered so that every source
    /// row is read before it is overwritten, where the row sets overlap;
    /// the bare `NOT`s behind one horizontal `INIT` where they do not) —
    /// for every shift distance in both directions, dense and strided row
    /// sets that overlap their sources, interleave with them or lie apart,
    /// inside one plane word or across several, into another register and
    /// back into the source register, under dense and strided crossbar
    /// masks. Scratch registers included.
    #[test]
    fn shifted_row_ranges_match_serial_transfers() {
        for (xbs, rows) in [(1usize, 4usize), (2, 64), (3, 96), (2, 200)] {
            let cfg = PimConfig::small()
                .with_crossbars(xbs)
                .with_rows(rows)
                .with_user_regs(2);
            let (t1, t2) = RowMove::scratch(&cfg);
            let mut pre = Crossbars::new(xbs, rows, cfg.regs);
            let mut noise = (rows * 7 + xbs) as u32 | 1;
            for (xb, row, reg) in (0..xbs)
                .flat_map(|xb| (0..rows).flat_map(move |row| (0..4).map(move |reg| (xb, row, reg))))
            {
                noise ^= noise << 13;
                noise ^= noise >> 17;
                noise ^= noise << 5;
                pre.set_word(xb, row, reg, noise);
            }
            let xb_mask = xb_masks(xbs)[(rows / 4) % 3];
            let mut scratch = Vec::new();
            for dist in 1..rows {
                for (upward, step) in [(true, 1), (false, 1), (true, 3), (false, 2 * dist)] {
                    // Source sets: as many rows as fit, a short set at the
                    // far end, a mid-word set.
                    let fit = (rows - dist).div_ceil(step);
                    for (first, count) in [(0, fit), (fit - 1, 1), (fit / 3, fit.div_ceil(2))] {
                        let count = count.min(fit - first);
                        // Upward: rows first.. move to first + dist..;
                        // downward: the mirror image.
                        let first = first * step;
                        let (src, dst) = match upward {
                            true => (first, first + dist),
                            false => (first + dist, first),
                        };
                        let rows_from = |start| {
                            RangeMask::strided(start as u32, count as u32, step as u32).unwrap()
                        };
                        let (src_rows, dst_rows) = (rows_from(src), rows_from(dst));
                        for (src, dst) in [(0, 1), (1, 1)] {
                            let mv = RowMove {
                                src,
                                dst,
                                src_rows,
                                dst_rows,
                            };
                            let mut ops = Vec::new();
                            mv.expand(&cfg, &mut ops).unwrap();
                            let mut slow = pre.clone();
                            let mut row_mask = src_rows;
                            for op in &ops {
                                match op {
                                    MicroOp::RowMask(m) => row_mask = *m,
                                    MicroOp::LogicH(l) => {
                                        let sel = lower(&slow, xb_mask, row_mask);
                                        slow.apply_hlogic(l, &sel, true).unwrap();
                                    }
                                    MicroOp::LogicV {
                                        gate,
                                        row_in,
                                        row_out,
                                        index,
                                    } => {
                                        let rows = (*row_in as usize, *row_out as usize);
                                        let reg = *index as usize;
                                        slow.apply_vlogic(*gate, rows, reg, &xb_mask, true)
                                            .unwrap();
                                    }
                                    _ => unreachable!("{op:?} in a row move"),
                                }
                            }
                            let mut fast = pre.clone();
                            let regs = [src, t1, t2, dst].map(usize::from);
                            fast.move_rows(regs, (&src_rows, &dst_rows), &xb_mask, &mut scratch);
                            let what = format!(
                                "{xbs}x{rows}: {src_rows:?} -> {dst_rows:?}, r{src} -> r{dst} \
                                 under {xb_mask:?}"
                            );
                            assert!(fast == slow, "{what}");
                            assert_padding_clear(&fast);
                        }
                    }
                }
            }
        }
    }

    /// `move_run` against the moves it stands for, one `move_words` each:
    /// runs of 1, 2, 64 and more rows, aligned in their plane words or
    /// not, crossing word boundaries, up and down, into the source
    /// register and another, under the crossbar masks a move allows.
    #[test]
    fn a_move_run_is_its_moves() {
        for (xbs, rows) in [(4usize, 64usize), (8, 96), (4, 200)] {
            let pre = noisy(xbs, rows, (rows * 3 + xbs) as u32);
            let masks = [
                (RangeMask::dense(0, xbs as u32 / 2).unwrap(), xbs as i32 / 2),
                (RangeMask::single(1), -1),
                (RangeMask::strided(0, xbs as u32 / 4, 4).unwrap(), 2),
            ];
            let mut scratch = Vec::new();
            for (xb_mask, dist) in masks {
                for n in [1, 2, 5, 64, 65, rows].into_iter().filter(|&n| n <= rows) {
                    for (row_src, row_dst) in [(0, 0), (3, 0), (0, 7), (rows - n, 0), (1, rows - n)]
                    {
                        if row_src + n > rows || row_dst + n > rows {
                            continue;
                        }
                        for (index_src, index_dst) in [(0, 0), (1, 2)] {
                            let mv = MoveOp {
                                dist,
                                row_src: row_src as u32,
                                row_dst: row_dst as u32,
                                index_src,
                                index_dst,
                            };
                            let mut slow = pre.clone();
                            for k in 0..n as u32 {
                                let mv_k = MoveOp {
                                    row_src: mv.row_src + k,
                                    row_dst: mv.row_dst + k,
                                    ..mv
                                };
                                slow.move_words(&mv_k, &xb_mask, &mut scratch);
                            }
                            let mut fast = pre.clone();
                            fast.move_run(&mv, n, &xb_mask);
                            assert!(fast == slow, "{xbs}x{rows}: {n} x {mv:?} under {xb_mask:?}");
                            assert_padding_clear(&fast);
                        }
                    }
                }
            }
        }
    }

    /// A valid horizontal operation of every shape from a few bytes of
    /// entropy: every gate kind, strides 1..=16, 1..=32 concurrent gates,
    /// and — a quarter of the time — a single gate whose operands sit
    /// anywhere in an eight-partition section (the only shape where an
    /// input may share the output's register in another partition).
    fn arbitrary_gate(
        c: &PimConfig,
        (code, p0, step, reps): (u8, u8, u8, u8),
        d: (u8, u8, u8),
        offs: (u8, u8, u8),
    ) -> Option<HLogic> {
        let gate = GateKind::from_code(code % 4)?;
        let (p0, step) = (p0 % 8, 1 + step % 16);
        let serial = reps % 4 == 0;
        let width = if serial { 8 } else { step };
        let (da, db, dout) = (d.0 % width, d.1 % width, d.2 % width);
        let (da, db) = (da.min(db), da.max(db)); // NOR: pA <= pB
        let reps = if serial {
            0
        } else {
            reps % ((31 - p0 - db.max(dout)) / step + 1)
        };
        HLogic::strided(
            gate,
            ColAddr::new(p0 + da, offs.0 % 3),
            ColAddr::new(p0 + db, offs.1 % 3),
            ColAddr::new(p0 + dout, offs.2 % 3),
            p0 + dout + reps * step,
            step,
            c,
        )
        .ok() // an input that coincides with the output
    }

    /// A row mask of every shape: whole crossbar, dense sub-range, dense
    /// range straddling the first plane-word boundary, strides 2/3/5, one
    /// row.
    fn arbitrary_rows(rows: u32, (kind, x, y): (u8, u8, u8)) -> RangeMask {
        let (x, y) = (x as u32, y as u32);
        let strided = |step: u32| {
            let start = x % rows;
            RangeMask::strided(start, 1 + y % ((rows - 1 - start) / step + 1), step).unwrap()
        };
        match kind % 7 {
            0 => RangeMask::dense(0, rows).unwrap(),
            1 => RangeMask::dense(x % rows, x % rows + 1 + y % (rows - x % rows)).unwrap(),
            2 if rows > 65 => RangeMask::new(63 - x % 8, 64 + y % (rows - 64), 1).unwrap(),
            2 | 3 => strided(2),
            4 => strided(3),
            5 => strided(5),
            _ => RangeMask::single(x % rows),
        }
    }

    /// The plane kernel must agree with the reference semantics — every
    /// expanded gate applied simultaneously (reading the pre-operation
    /// state), cell by cell through `cell`/`set_cell` — for every operation
    /// shape, under every mask shape, at row counts that are and are not a
    /// multiple of 64. Comparing whole images also holds the padding bits
    /// at 0 and every unselected cell unchanged. In strict mode the same
    /// operation either does the same or fails, names the lowest row with
    /// an unset output and changes nothing.
    #[test]
    fn word_level_matches_expanded_gates() {
        const XBS: usize = 4;
        let mut runner = proptest::test_runner::TestRunner::new(ProptestConfig::with_cases(1024));
        runner
            .run(
                &(
                    any::<(u8, u8, u8, u8)>(),
                    any::<(u8, u8, u8)>(),
                    any::<(u8, u8, u8)>(),
                    any::<(u8, u8, u8)>(),
                    any::<(u8, u8, u8)>(),
                    any::<u32>(),
                ),
                |(shape, parts, offs, row_seed, (geometry, xb_kind, xb_at), seed)| {
                    let c = cfg().with_rows([4, 64, 96, 130][geometry as usize % 4]);
                    let Some(op) = arbitrary_gate(&c, shape, parts, offs) else {
                        return Ok(());
                    };
                    let row_mask = arbitrary_rows(c.rows as u32, row_seed);
                    let xb_mask = match xb_kind % 4 {
                        0 => RangeMask::dense(0, XBS as u32).unwrap(),
                        1 => RangeMask::dense(1, 3).unwrap(),
                        2 => RangeMask::new(xb_at as u32 % 2, 2 + xb_at as u32 % 2, 2).unwrap(),
                        _ => RangeMask::single(xb_at as u32 % XBS as u32),
                    };
                    // Registers 0..3 hold mostly-ones noise, so strict runs
                    // both pass and fail.
                    let mut pre = Crossbars::new(XBS, c.rows, c.regs);
                    let mut noise = seed | 1;
                    for xb in 0..XBS {
                        for row in 0..c.rows {
                            for reg in 0..3 {
                                noise ^= noise << 13;
                                noise ^= noise >> 17;
                                noise ^= noise << 5;
                                let holes = if noise % 5 == 0 {
                                    noise.rotate_left(9) & noise
                                } else {
                                    0
                                };
                                pre.set_word(
                                    xb,
                                    row,
                                    reg,
                                    if seed % 3 == 0 { noise } else { !holes },
                                );
                            }
                        }
                    }
                    let sel = lower(&pre, xb_mask, row_mask);

                    // Reference: per-gate stateful update from the snapshot.
                    let mut slow = pre.clone();
                    let mut first_unset: Option<u32> = None;
                    for g in op.expand_gates() {
                        for xb in xb_mask.iter().map(|xb| xb as usize) {
                            for row in row_mask.iter() {
                                let cell =
                                    |col: ColAddr| pre.cell(xb, row as usize, col.part, col.offset);
                                let value = match op.gate {
                                    GateKind::Init0 => false,
                                    GateKind::Init1 => true,
                                    GateKind::Not => cell(g.out) && !cell(g.a),
                                    GateKind::Nor => cell(g.out) && !(cell(g.a) || cell(g.b)),
                                };
                                slow.set_cell(xb, row as usize, g.out.part, g.out.offset, value);
                                if op.gate.inputs() > 0 && !cell(g.out) {
                                    first_unset = Some(first_unset.map_or(row, |r| r.min(row)));
                                }
                            }
                        }
                    }

                    let mut fast = pre.clone();
                    fast.apply_hlogic(&op, &sel, false).unwrap();
                    prop_assert!(
                        fast == slow,
                        "{:?} under {:?} x {:?}",
                        &op,
                        xb_mask,
                        row_mask
                    );
                    assert_padding_clear(&fast);

                    let mut strict = pre.clone();
                    match (strict.apply_hlogic(&op, &sel, true), first_unset) {
                        (Ok(()), None) => prop_assert!(strict == slow),
                        (Err(e), Some(row)) => {
                            prop_assert!(
                                e.to_string().contains(&format!("row {row} ")),
                                "{} vs {}",
                                e,
                                row
                            );
                            prop_assert!(strict == pre, "strict failure changed cells: {:?}", &op);
                        }
                        (got, want) => {
                            prop_assert!(false, "strict: {:?}, first unset {:?}", got, want)
                        }
                    }
                    Ok(())
                },
            )
            .unwrap();
    }

    /// Word-granular operations against a plain `Vec<u32>` model of the
    /// chip, at a row count that leaves padding in every plane word:
    /// writes under every mask shape, vertical gates, moves, single-word
    /// pokes; the image, read back word by word, always matches the model
    /// and the padding stays clear.
    #[test]
    fn word_ops_match_a_word_array_model() {
        const XBS: usize = 4;
        let c = cfg().with_rows(96).with_crossbars(XBS);
        let mut runner = proptest::test_runner::TestRunner::new(ProptestConfig::with_cases(128));
        runner
            .run(
                &proptest::collection::vec(any::<(u8, (u8, u8, u8), u8, u32)>(), 1..24),
                |steps| {
                    let mut chip = Crossbars::new(XBS, c.rows, c.regs);
                    let mut model = vec![0u32; XBS * c.rows * 4];
                    let at = |xb: usize, row: usize, reg: usize| (xb * c.rows + row) * 4 + reg;
                    let mut scratch = Vec::new();
                    for (kind, rows, x, value) in steps {
                        let reg = x as usize % 4;
                        let xb_mask = match x % 3 {
                            0 => RangeMask::dense(0, XBS as u32).unwrap(),
                            1 => RangeMask::new(0, 2, 2).unwrap(),
                            _ => RangeMask::single(x as u32 % XBS as u32),
                        };
                        let (r0, r1) = (rows.1 as usize % c.rows, rows.2 as usize % c.rows);
                        match kind % 4 {
                            0 => {
                                let row_mask = arbitrary_rows(c.rows as u32, rows);
                                chip.write(reg, value, &lower(&chip, xb_mask, row_mask));
                                for xb in xb_mask.iter() {
                                    for row in row_mask.iter() {
                                        model[at(xb as usize, row as usize, reg)] = value;
                                    }
                                }
                            }
                            1 => {
                                let gate =
                                    [VGate::Init0, VGate::Init1, VGate::Not][value as usize % 3];
                                chip.apply_vlogic(gate, (r0, r1), reg, &xb_mask, false)
                                    .unwrap();
                                for xb in xb_mask.iter().map(|xb| xb as usize) {
                                    let src = model[at(xb, r0, reg)];
                                    let dst = &mut model[at(xb, r1, reg)];
                                    *dst = match gate {
                                        VGate::Init0 => 0,
                                        VGate::Init1 => u32::MAX,
                                        VGate::Not => *dst & !src,
                                    };
                                }
                            }
                            2 => {
                                // Sources {0, 2} or one crossbar below the last.
                                let sources = match x % 2 {
                                    0 => RangeMask::new(0, 2, 2).unwrap(),
                                    _ => RangeMask::single(x as u32 % (XBS as u32 - 1)),
                                };
                                let mv = MoveOp {
                                    dist: 1,
                                    row_src: r0 as u32,
                                    row_dst: r1 as u32,
                                    index_src: reg as u8,
                                    index_dst: (value % 4) as u8,
                                };
                                chip.move_words(&mv, &sources, &mut scratch);
                                let sent: Vec<u32> = sources
                                    .iter()
                                    .map(|s| model[at(s as usize, r0, reg)])
                                    .collect();
                                for (s, v) in sources.iter().zip(sent) {
                                    model[at(s as usize + 1, r1, value as usize % 4)] = v;
                                }
                            }
                            _ => {
                                chip.set_word(x as usize % XBS, r0, reg, value);
                                model[at(x as usize % XBS, r0, reg)] = value;
                            }
                        }
                    }
                    for xb in 0..XBS {
                        for row in 0..c.rows {
                            for reg in 0..4 {
                                prop_assert_eq!(chip.word(xb, row, reg), model[at(xb, row, reg)]);
                            }
                        }
                    }
                    assert_padding_clear(&chip);
                    Ok(())
                },
            )
            .unwrap();
    }
}
