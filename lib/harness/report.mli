(** Text/CSV rendering of benchmark series, one table per figure panel:
    thread counts down the rows, one column per implementation. *)

type series = { label : string; points : (int * float) list }

val render_table :
  title:string -> xlabel:string -> series list -> Format.formatter -> unit

val print_table : title:string -> xlabel:string -> series list -> unit

val save_csv :
  dir:string -> name:string -> xlabel:string -> series list -> string
(** Writes [dir/name.csv]; returns the path. *)
