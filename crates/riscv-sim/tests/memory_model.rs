//! Differential test of [`Memory`] against a naive byte map.
//!
//! Random sequences of sized writes, bulk loads, reads, fetches and
//! snapshot restores run on both. Addresses cluster around page
//! boundaries, so many accesses cross pages or touch unmapped ones, and
//! they spread over eight pages, more than the last-hit cache holds, so
//! its entries are evicted and refilled. Every result must match,
//! including the address an `UnmappedAddress` error reports, and after
//! every write each fetched pc must still decode to what its bytes say.

use std::collections::{BTreeMap, BTreeSet};

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::sample::select;
use riscv_isa::instr::OpImmOp;
use riscv_isa::{Instr, Reg};
use riscv_sim::{CpuError, Memory};

const PAGE: u64 = 0x1000;

/// Page bases the addresses fall in: two low pages, a contiguous run in
/// the guest's text region, one far data page, and the top page, whose
/// crossing accesses wrap to address 0.
const BASES: [u64; 8] = [
    0x0,
    0x1000,
    0x8000_0000,
    0x8000_1000,
    0x8000_2000,
    0x8000_3000,
    0x8010_0000,
    0xFFFF_FFFF_FFFF_F000,
];

/// The reference: one `Vec` per mapped page, accessed a byte at a time.
#[derive(Clone, Default)]
struct Model {
    pages: BTreeMap<u64, Vec<u8>>,
}

impl Model {
    fn write(&mut self, addr: u64, bytes: &[u8]) {
        for (i, &byte) in bytes.iter().enumerate() {
            let a = addr.wrapping_add(i as u64);
            let page = self
                .pages
                .entry(a / PAGE)
                .or_insert_with(|| vec![0; PAGE as usize]);
            page[(a % PAGE) as usize] = byte;
        }
    }

    fn read(&self, addr: u64, len: usize) -> Result<Vec<u8>, CpuError> {
        (0..len as u64)
            .map(|i| {
                let a = addr.wrapping_add(i);
                self.pages
                    .get(&(a / PAGE))
                    .map(|page| page[(a % PAGE) as usize])
                    .ok_or(CpuError::UnmappedAddress(a))
            })
            .collect()
    }

    fn read_value(&self, addr: u64, size: usize) -> Result<u64, CpuError> {
        let mut le = [0u8; 8];
        le[..size].copy_from_slice(&self.read(addr, size)?);
        Ok(u64::from_le_bytes(le))
    }

    fn fetch(&self, pc: u64) -> Result<Instr, CpuError> {
        if !pc.is_multiple_of(4) {
            return Err(CpuError::MisalignedPc(pc));
        }
        let word = self
            .read_value(pc, 4)
            .map_err(|_| CpuError::FetchFault(pc))?;
        Ok(Instr::decode(word as u32)?)
    }

    fn dump(&self) -> Vec<(u64, Vec<u8>)> {
        self.pages
            .iter()
            .map(|(&number, bytes)| (number * PAGE, bytes.clone()))
            .collect()
    }
}

#[derive(Debug, Clone)]
enum Op {
    Write { addr: u64, size: usize, value: u64 },
    Load { addr: u64, bytes: Vec<u8> },
    Read { addr: u64, size: usize },
    ReadBytes { addr: u64, len: usize },
    Fetch { pc: u64 },
    Save,
    Restore,
}

fn addr() -> impl Strategy<Value = u64> {
    let offset = prop_oneof![0u64..16, PAGE - 16..PAGE, 0u64..PAGE];
    (select(BASES.to_vec()), offset).prop_map(|(base, offset)| base.wrapping_add(offset))
}

/// Values that are mostly instruction words, some of them undecodable,
/// so fetches hit both cached decodes and decode errors.
fn word() -> impl Strategy<Value = u32> {
    let addi = |imm| {
        Instr::OpImm {
            op: OpImmOp::Addi,
            rd: Reg::A0,
            rs1: Reg::A0,
            imm,
        }
        .encode()
        .expect("addi encodes")
    };
    prop_oneof![
        select(vec![
            addi(1),
            addi(100),
            addi(-7),
            Instr::NOP.encode().expect("nop encodes")
        ]),
        select(vec![0u32, 0xFFFF_FFFF]),
        any::<u32>(),
    ]
}

fn op() -> impl Strategy<Value = Op> {
    let value = (word(), word()).prop_map(|(lo, hi)| u64::from(lo) | u64::from(hi) << 32);
    let bytes = prop_oneof![vec(any::<u8>(), 0..24), vec(any::<u8>(), 0..9000)];
    prop_oneof![
        (addr(), select(vec![1usize, 2, 4, 8]), value).prop_map(|(addr, size, value)| Op::Write {
            addr,
            size,
            value
        }),
        (addr(), bytes).prop_map(|(addr, bytes)| Op::Load { addr, bytes }),
        (addr(), select(vec![1usize, 2, 4, 8])).prop_map(|(addr, size)| Op::Read { addr, size }),
        (addr(), 0usize..9000).prop_map(|(addr, len)| Op::ReadBytes { addr, len }),
        (addr(), 0u64..8).prop_map(|(pc, misalign)| Op::Fetch {
            pc: if misalign == 0 { pc | 2 } else { pc & !3 },
        }),
        Just(Op::Save),
        Just(Op::Restore),
    ]
}

fn sized_write(memory: &mut Memory, addr: u64, size: usize, value: u64) -> Result<(), CpuError> {
    match size {
        1 => memory.write_u8(addr, value as u8),
        2 => memory.write_u16(addr, value as u16),
        4 => memory.write_u32(addr, value as u32),
        _ => memory.write_u64(addr, value),
    }
}

fn sized_read(memory: &Memory, addr: u64, size: usize) -> Result<u64, CpuError> {
    match size {
        1 => memory.read_u8(addr).map(u64::from),
        2 => memory.read_u16(addr).map(u64::from),
        4 => memory.read_u32(addr).map(u64::from),
        _ => memory.read_u64(addr),
    }
}

/// The word-aligned pcs of the words `len` bytes at `addr` touch.
fn words(addr: u64, len: usize) -> Vec<u64> {
    let first = addr & !3;
    let count = (len as u64 + (addr - first)).div_ceil(4);
    (0..count).map(|i| first.wrapping_add(4 * i)).collect()
}

/// Checks `fetch` at each of `pcs` against the model, and at aligned pcs
/// against decoding `read_u32`.
fn check_fetches(memory: &mut Memory, model: &Model, pcs: impl Iterator<Item = u64>) {
    for pc in pcs {
        let expected = model.fetch(pc);
        assert_eq!(memory.fetch(pc), expected, "fetch({pc:#x})");
        if pc.is_multiple_of(4) {
            let via_read = memory
                .read_u32(pc)
                .map_err(|_| CpuError::FetchFault(pc))
                .and_then(|word| Ok(Instr::decode(word)?));
            assert_eq!(via_read, expected, "decode(read_u32({pc:#x}))");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 200, ..ProptestConfig::default() })]

    #[test]
    fn memory_matches_a_byte_map(ops in vec(op(), 1..80)) {
        let mut memory = Memory::new();
        let mut model = Model::default();
        let mut saved: Option<Model> = None;
        let mut fetched = BTreeSet::new();
        for op in ops {
            // The words this op wrote, if it wrote any.
            let written = match op {
                Op::Write { addr, size, value } => {
                    prop_assert_eq!(sized_write(&mut memory, addr, size, value), Ok(()));
                    model.write(addr, &value.to_le_bytes()[..size]);
                    Some(words(addr, size))
                }
                Op::Load { addr, ref bytes } => {
                    prop_assert_eq!(memory.load_bytes(addr, bytes), Ok(()));
                    model.write(addr, bytes);
                    Some(words(addr, bytes.len()))
                }
                Op::Read { addr, size } => {
                    prop_assert_eq!(sized_read(&memory, addr, size), model.read_value(addr, size));
                    None
                }
                Op::ReadBytes { addr, len } => {
                    prop_assert_eq!(memory.read_bytes(addr, len), model.read(addr, len));
                    None
                }
                Op::Fetch { pc } => {
                    prop_assert_eq!(memory.fetch(pc), model.fetch(pc));
                    fetched.insert(pc);
                    None
                }
                Op::Save => {
                    prop_assert_eq!(memory.dump_pages(), model.dump());
                    saved = Some(model.clone());
                    None
                }
                Op::Restore => match &saved {
                    Some(snapshot) => {
                        prop_assert_eq!(memory.restore_pages(&snapshot.dump()), Ok(()));
                        model = snapshot.clone();
                        Some(Vec::new())
                    }
                    None => None,
                },
            };
            // Every pc fetched so far may hold a cached decode.
            if let Some(written) = written {
                check_fetches(&mut memory, &model, fetched.iter().copied().chain(written));
            }
            prop_assert_eq!(memory.mapped_pages(), model.pages.len());
        }
        prop_assert_eq!(memory.dump_pages(), model.dump());
    }
}

#[test]
fn restore_rejects_malformed_pages_and_keeps_memory() {
    let mut memory = Memory::new();
    memory.write_u32(0x8000_0000, 0x13).unwrap();
    assert!(memory
        .restore_pages(&[(0x8000_0004, vec![0; PAGE as usize])])
        .is_err());
    assert!(memory.restore_pages(&[(0x8000_0000, vec![0; 8])]).is_err());
    assert_eq!(memory.fetch(0x8000_0000), Ok(Instr::NOP));
    assert_eq!(memory.mapped_pages(), 1);
}
