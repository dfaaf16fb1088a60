//! The kernel's one sort, for the block dictionary, the pair keys and the
//! coloring order alike, whatever range their keys span.

/// Bits per digit: 2 048 counters, 8 KiB, stay in L1.
const DIGIT: u32 = 11;

/// Sort `data` stably by `key`, one counting pass per 11-bit digit in which
/// two keys differ, over only as many counters as that digit's differing
/// bits need. `other` is the other half of each pass; its contents do not
/// matter, and once both are as long as `data` nothing allocates.
pub(crate) fn radix_sort<T: Copy>(data: &mut Vec<T>, other: &mut Vec<T>, key: impl Fn(&T) -> u64) {
    let Some(&first) = data.first() else {
        return;
    };
    assert!(u32::try_from(data.len()).is_ok(), "counts are 32 bits wide");
    let k0 = key(&first);
    let varying = data.iter().fold(0, |bits, x| bits | (key(x) ^ k0));
    let mut count = [0u32; 1 << DIGIT];
    for shift in (0..u64::BITS).step_by(DIGIT as usize) {
        let differing = varying >> shift;
        if differing & ((1 << DIGIT) - 1) == 0 {
            continue;
        }
        // Above the last differing bit every key's digit is `k0`'s.
        let width = (u64::BITS - differing.leading_zeros()).min(DIGIT);
        let count = &mut count[..1 << width];
        let digit = |x: &T| ((key(x) >> shift) & ((1 << width) - 1)) as usize;
        count.fill(0);
        for x in data.iter() {
            count[digit(x)] += 1;
        }
        let mut sum = 0;
        for c in count.iter_mut() {
            (*c, sum) = (sum, sum + *c);
        }
        other.resize(data.len(), first);
        for x in data.iter() {
            let slot = &mut count[digit(x)];
            other[*slot as usize] = *x;
            *slot += 1;
        }
        std::mem::swap(data, other);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorts_stably_across_the_whole_key_range() {
        let mut data: Vec<(u64, u32)> = (0..500u32)
            .map(|i| {
                (
                    (u64::from(i).wrapping_mul(0x9E37_79B9_7F4A_7C15) % 7) << 60,
                    i,
                )
            })
            .chain([(u64::MAX, 500), (0, 501), (1 << 33, 502)])
            .collect();
        let mut want = data.clone();
        want.sort_by_key(|e| e.0);
        radix_sort(&mut data, &mut Vec::new(), |e| e.0);
        assert_eq!(data, want);
    }
}
