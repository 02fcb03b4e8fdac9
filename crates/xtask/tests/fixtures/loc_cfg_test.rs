//! Six counted lines: these two doc lines, the blank line after them
//! and the three lines of `live`. The test module is not counted.

pub fn live() -> u32 {
    7
}
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_is_seven() {
        assert_eq!(live(), 7);
    }
}
