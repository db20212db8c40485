//! Seeded input generation. Every input a workload runs is drawn from
//! here, so one `--seed` always produces the same inputs.

/// A splitmix64 stream. Distinct `stream` tags give independent
/// sequences from one seed, so adding a draw to one input family never
/// shifts another.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is below 2^-40 for
    /// the small ranges used here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Draws from a shuffled deck holding each item `count` times and
/// reshuffles when it runs out, so every whole deck has the exact mix.
/// A workload's mix therefore barely moves between seeds, which keeps
/// run-to-run spread down to what the code under test does.
#[derive(Debug, Clone)]
pub struct Deck<T: Copy> {
    cards: Vec<T>,
    next: usize,
}

impl<T: Copy> Deck<T> {
    pub fn new(mix: &[(T, usize)]) -> Self {
        let cards: Vec<T> = mix
            .iter()
            .flat_map(|&(item, count)| std::iter::repeat_n(item, count))
            .collect();
        assert!(!cards.is_empty(), "a deck needs at least one card");
        let next = cards.len();
        Self { cards, next }
    }

    pub fn draw(&mut self, rng: &mut Rng) -> T {
        if self.next == self.cards.len() {
            rng.shuffle(&mut self.cards);
            self.next = 0;
        }
        self.next += 1;
        self.cards[self.next - 1]
    }
}

/// A seeded visiting order of `0..n` whose every prefix spreads evenly
/// over the range: a stride walk with a stride near `0.382·n` coprime
/// to `n`, from a seeded start. A run cut short by its time box still
/// sees small and large inputs in the full set's proportions.
pub fn spread_order(n: usize, rng: &mut Rng) -> Vec<usize> {
    assert!(n > 0, "nothing to order");
    let gcd = |mut a: usize, mut b: usize| {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    };
    let mut stride = ((n as f64 * 0.382).round() as usize).max(1);
    while gcd(stride, n) != 1 {
        stride += 1;
    }
    let start = rng.below(n);
    (0..n).map(|k| (start + k * stride) % n).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draws(seed: u64) -> Vec<u64> {
        let mut rng = Rng::new(seed, 7);
        (0..32).map(|_| rng.next_u64()).collect()
    }

    #[test]
    fn same_seed_same_stream_and_seeds_differ() {
        assert_eq!(draws(3), draws(3));
        assert_ne!(draws(3), draws(4));
        let mut a = Rng::new(3, 1);
        let mut b = Rng::new(3, 2);
        assert_ne!(a.next_u64(), b.next_u64(), "streams must be independent");
    }

    #[test]
    fn deck_keeps_the_exact_mix_per_round() {
        let mut rng = Rng::new(11, 0);
        let mut deck = Deck::new(&[('a', 5), ('b', 3), ('c', 2)]);
        for _ in 0..4 {
            let round: Vec<char> = (0..10).map(|_| deck.draw(&mut rng)).collect();
            assert_eq!(round.iter().filter(|&&c| c == 'a').count(), 5);
            assert_eq!(round.iter().filter(|&&c| c == 'b').count(), 3);
            assert_eq!(round.iter().filter(|&&c| c == 'c').count(), 2);
        }
    }

    #[test]
    fn deck_order_is_seeded() {
        let run = |seed| {
            let mut rng = Rng::new(seed, 0);
            let mut deck = Deck::new(&[(0u8, 10), (1u8, 10)]);
            (0..20).map(|_| deck.draw(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn spread_order_is_a_permutation_with_even_prefixes() {
        for n in [1usize, 4, 11, 12, 55] {
            let order = spread_order(n, &mut Rng::new(9, 0));
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..n).collect::<Vec<_>>(), "n={n}");
        }
        // Any half of a 55-long order covers both ends of the range.
        let order = spread_order(55, &mut Rng::new(2, 0));
        let half = &order[..27];
        assert!(half.iter().filter(|&&i| i < 18).count() >= 7);
        assert!(half.iter().filter(|&&i| i >= 37).count() >= 7);
    }
}
