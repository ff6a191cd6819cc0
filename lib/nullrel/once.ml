type 'a state = Unset of (unit -> 'a) | Set of 'a
type 'a t = 'a state Atomic.t

let make f = Atomic.make (Unset f)
let of_val v = Atomic.make (Set v)

let get cell =
  match Atomic.get cell with
  | Set v -> v
  | Unset build as seen -> (
      let v = build () in
      if Atomic.compare_and_set cell seen (Set v) then v
      else
        (* Another domain published first; a cell is never unset again,
           so its value is the one every caller gets. *)
        match Atomic.get cell with Set v -> v | Unset _ -> v)
