//! The result list of one interpreter operation.
//!
//! Evaluating an expression, resolving an lvalue, executing a statement or
//! deciding a branch turns one path state into zero or more, and almost
//! always into exactly one: only a feasible fork, or a callee whose body
//! forked, yields a second. [`Outcomes`] holds the first result inline and
//! allocates only when a second one exists, so the common step builds no
//! heap list at all.

/// Zero or more results in production order, the first held inline.
///
/// Iteration, [`Outcomes::append`] and [`Outcomes::pop`] observe exactly
/// the order of a `Vec` filled by the same pushes.
#[derive(Debug)]
pub(crate) struct Outcomes<T> {
    /// The first result; `None` only when `rest` is empty too.
    first: Option<T>,
    /// Every later result, in order.
    rest: Vec<T>,
}

impl<T> Outcomes<T> {
    /// No results.
    pub fn none() -> Self {
        Outcomes {
            first: None,
            rest: Vec::new(),
        }
    }

    /// Exactly one result.
    pub fn one(item: T) -> Self {
        Outcomes {
            first: Some(item),
            rest: Vec::new(),
        }
    }

    /// Appends a result. The second result allocates room for one; the
    /// list grows geometrically from there.
    pub fn push(&mut self, item: T) {
        if self.first.is_none() {
            self.first = Some(item);
        } else {
            if self.rest.capacity() == 0 {
                self.rest.reserve_exact(1);
            }
            self.rest.push(item);
        }
    }

    /// Appends every result of `other`, in order; an empty list takes
    /// `other` over whole.
    pub fn append(&mut self, other: Outcomes<T>) {
        if self.first.is_none() {
            *self = other;
        } else {
            for item in other {
                self.push(item);
            }
        }
    }

    /// Removes and returns the last result (stack order).
    pub fn pop(&mut self) -> Option<T> {
        self.rest.pop().or_else(|| self.first.take())
    }

    /// Number of results.
    pub fn len(&self) -> usize {
        usize::from(self.first.is_some()) + self.rest.len()
    }

    /// The results, in order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.first.iter().chain(&self.rest)
    }

    /// Transforms every result, keeping the order. A single result stays
    /// inline.
    pub fn map<U>(self, mut f: impl FnMut(T) -> U) -> Outcomes<U> {
        Outcomes {
            first: self.first.map(&mut f),
            rest: self.rest.into_iter().map(f).collect(),
        }
    }
}

impl<T> IntoIterator for Outcomes<T> {
    type Item = T;
    type IntoIter = std::iter::Chain<std::option::IntoIter<T>, std::vec::IntoIter<T>>;

    fn into_iter(self) -> Self::IntoIter {
        self.first.into_iter().chain(self.rest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_push_order_like_a_vec() {
        let mut outcomes = Outcomes::none();
        let mut reference = Vec::new();
        for i in 0..5 {
            outcomes.push(i);
            reference.push(i);
            assert_eq!(outcomes.len(), reference.len());
            assert_eq!(outcomes.iter().copied().collect::<Vec<_>>(), reference);
        }
        let mut tail = Outcomes::one(10);
        tail.push(11);
        outcomes.append(tail);
        reference.extend([10, 11]);
        assert_eq!(outcomes.iter().copied().collect::<Vec<_>>(), reference);
        let doubled = outcomes.map(|i| i * 2);
        assert_eq!(
            doubled.into_iter().collect::<Vec<_>>(),
            reference.iter().map(|i| i * 2).collect::<Vec<_>>()
        );
    }

    #[test]
    fn pop_is_lifo_like_a_vec() {
        let mut outcomes = Outcomes::one(1);
        outcomes.push(2);
        outcomes.push(3);
        assert_eq!(outcomes.pop(), Some(3));
        outcomes.push(4);
        assert_eq!(outcomes.pop(), Some(4));
        assert_eq!(outcomes.pop(), Some(2));
        assert_eq!(outcomes.pop(), Some(1));
        assert_eq!(outcomes.pop(), None);
        assert_eq!(outcomes.len(), 0);
        outcomes.push(5);
        assert_eq!(outcomes.iter().copied().collect::<Vec<_>>(), vec![5]);
    }

    #[test]
    fn appending_to_an_empty_list_takes_the_other_over() {
        let mut outcomes = Outcomes::none();
        outcomes.append(Outcomes::none());
        assert_eq!(outcomes.len(), 0);
        let mut other = Outcomes::one("a");
        other.push("b");
        outcomes.append(other);
        assert_eq!(outcomes.into_iter().collect::<Vec<_>>(), vec!["a", "b"]);
    }

    #[test]
    fn a_single_result_allocates_nothing() {
        let outcomes = Outcomes::one(String::from("x"));
        let mapped = outcomes.map(|s| s.len() + 1);
        assert_eq!(mapped.rest.capacity(), 0);
        assert_eq!(mapped.into_iter().collect::<Vec<_>>(), vec![2]);
    }
}
